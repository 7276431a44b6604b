// Command mkmanifest generates the paper's manifests for a content preset:
// the DASH MPD, the HLS master playlists H_all and H_sub, and per-track HLS
// media playlists (single-file byte-range packaging with EXT-X-BITRATE, per
// the paper's §4.1 recommendations).
//
// Usage:
//
//	mkmanifest -out dir [-content drama]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"demuxabr/internal/manifest/dash"
	"demuxabr/internal/manifest/hls"
	"demuxabr/internal/media"
)

func main() {
	out := flag.String("out", "manifests", "output directory")
	contentName := flag.String("content", "drama", "content: "+strings.Join(media.Names(), ", "))
	flag.Parse()
	if err := run(*out, *contentName); err != nil {
		fmt.Fprintln(os.Stderr, "mkmanifest:", err)
		os.Exit(1)
	}
}

func run(out, contentName string) error {
	content, err := media.Named(contentName)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	write := func(name string, enc func(f *os.File) error) error {
		path := filepath.Join(out, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return err
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := enc(f); err != nil {
			f.Close()
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Println("wrote", path)
		return f.Close()
	}

	if err := write("manifest.mpd", func(f *os.File) error {
		return dash.Generate(content).Encode(f)
	}); err != nil {
		return err
	}
	if err := write("master_hall.m3u8", func(f *os.File) error {
		return hls.GenerateMaster(content, media.HAll(content), nil).Encode(f)
	}); err != nil {
		return err
	}
	if err := write("master_hsub.m3u8", func(f *os.File) error {
		return hls.GenerateMaster(content, media.HSub(content), nil).Encode(f)
	}); err != nil {
		return err
	}
	for _, tr := range content.Tracks() {
		name := fmt.Sprintf("%s/%s.m3u8", tr.Type, tr.ID)
		if err := write(name, func(f *os.File) error {
			return hls.GenerateMedia(content, tr, hls.SingleFile, true).Encode(f)
		}); err != nil {
			return err
		}
	}
	return nil
}
