package main

import (
	"flag"
	"fmt"
	"os"

	"veriopt/internal/vstore"
)

// cmdCache is the verdict-storage admin surface:
//
//	veriopt cache stat -store-dir DIR
//
// stat opens the store — replaying it, so a torn tail is repaired as
// at any start — and prints its stats. It inspects a store and never
// makes one: a directory that does not exist is an error.
func cmdCache(args []string) error {
	if len(args) < 1 || args[0] != "stat" {
		return fmt.Errorf("usage: veriopt cache stat -store-dir DIR")
	}
	fs := flag.NewFlagSet("cache stat", flag.ExitOnError)
	dir := fs.String("store-dir", "", "verdict store directory")
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("veriopt cache stat: -store-dir is required")
	}
	if _, err := os.Stat(*dir); err != nil {
		return fmt.Errorf("veriopt cache stat: no verdict store: %w", err)
	}
	st, err := vstore.Open(*dir, vstore.Config{})
	if err != nil {
		return fmt.Errorf("open verdict store: %w", err)
	}
	s := st.Stats()
	fmt.Printf("%s\nsegments     %d\nentries      %d\nlive_bytes   %d\n", s, s.Segments, s.Entries, s.LiveBytes)
	return st.Close()
}
