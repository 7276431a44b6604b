// Command list prints the tests and packages the ratchet ledger
// (docs/PERFORMANCE.md) names, for check.sh's allocation step: the tests
// as one go test -run pattern, then each package as a ./ path, all on one
// line. Run it from anywhere inside the module:
//
//	go run ./internal/ledger/list
package main

import (
	"fmt"
	"os"
	"strings"

	"demuxabr/internal/ledger"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run() error {
	dir, err := os.Getwd()
	if err != nil {
		return err
	}
	root, err := ledger.Root(dir)
	if err != nil {
		return err
	}
	rows, err := ledger.Read(root)
	if err != nil {
		return err
	}
	tests, packages := ledger.List(rows)
	fmt.Print(strings.Join(tests, "|"))
	for _, p := range packages {
		fmt.Print(" ./" + p)
	}
	fmt.Println()
	return nil
}
