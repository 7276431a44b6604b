// Command origin runs the real HTTP origin server: generated DASH/HLS
// manifests plus synthetic chunk payloads, with optional token-bucket
// shaping standing in for tc.
//
// Usage:
//
//	origin -addr :8080 [-kbps 900] [-content drama] [-manifest hsub]
//
// Then stream from it, e.g. with the httpclient package or:
//
//	curl http://localhost:8080/manifest.mpd
//	curl http://localhost:8080/master.m3u8
//	curl http://localhost:8080/video/V3/seg-0.m4s -o /dev/null
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"time"

	"demuxabr/internal/media"
	"demuxabr/internal/originserver"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	kbps := flag.Float64("kbps", 0, "egress shaping in Kbps (0 = unlimited)")
	contentName := flag.String("content", "drama", "content: "+strings.Join(media.Names(), ", "))
	manifest := flag.String("manifest", "hsub", "HLS master variants: hsub or hall")
	flag.Parse()
	if err := run(*addr, *kbps, *contentName, *manifest); err != nil {
		fmt.Fprintln(os.Stderr, "origin:", err)
		os.Exit(1)
	}
}

// newServer builds the configured HTTP server (separated from run for
// testability).
func newServer(addr string, kbps float64, contentName, manifest string) (*http.Server, *media.Content, error) {
	content, err := media.Named(contentName)
	if err != nil {
		return nil, nil, err
	}
	opts := originserver.Options{}
	switch manifest {
	case "hsub":
		opts.Combos = media.HSub(content)
	case "hall":
		opts.Combos = media.HAll(content)
	default:
		return nil, nil, fmt.Errorf("unknown manifest %q", manifest)
	}
	if kbps > 0 {
		opts.Shaper = originserver.NewTokenBucket(media.Kbps(kbps), 32*1024)
	}
	return &http.Server{
		Addr:              addr,
		Handler:           originserver.New(content, opts).Handler(),
		ReadHeaderTimeout: 5 * time.Second,
	}, content, nil
}

func run(addr string, kbps float64, contentName, manifest string) error {
	srv, content, err := newServer(addr, kbps, contentName, manifest)
	if err != nil {
		return err
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	fmt.Printf("origin serving %q on %s (shaping: %.0f Kbps)\n", content.Name, addr, kbps)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		return err
	}
	fmt.Println("origin stopped")
	return nil
}
