// Command flickld links Flick objects (.fobj from flickasm, or .fasm
// sources assembled on the fly) into one multi-ISA image and prints the
// image map: page-aligned per-ISA segments, the resolved symbol table, and
// the loader's NX markings. The runtime library is linked for the host and
// every ISA the inputs carry text for.
//
// Usage:
//
//	flickld prog.fasm lib.fobj ...
//	flickld -entry start prog.fasm
package main

import (
	"encoding/gob"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"flick/internal/asm"
	"flick/internal/core"
	"flick/internal/isa"
	"flick/internal/multibin"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its environment made explicit so the command is
// testable in-process: the image map on stdout, diagnostics on stderr.
// Returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("flickld", flag.ContinueOnError)
	fs.SetOutput(stderr)
	entry := fs.String("entry", "main", "entry symbol")
	noRuntime := fs.Bool("no-runtime", false, "do not link the Flick runtime library")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: flickld [-entry sym] <file.fasm|file.fobj>...")
		return 2
	}
	fatal := func(err error) int {
		fmt.Fprintln(stderr, "flickld:", err)
		return 1
	}

	var objects []*multibin.Object
	families := []isa.ISA{isa.HostISA()}
	for _, path := range fs.Args() {
		obj, err := loadInput(path)
		if err != nil {
			return fatal(err)
		}
		objects = append(objects, obj)
		for _, s := range obj.Sections {
			if s.Kind == multibin.SecText {
				families = append(families, s.ISA)
			}
		}
	}
	if !*noRuntime {
		lib, err := asm.Assemble("flick_runtime.fasm", core.Library(families))
		if err != nil {
			return fatal(err)
		}
		objects = append(objects, lib)
	}

	im, err := multibin.Link(multibin.LinkConfig{
		Entry:         *entry,
		PerISASymbols: core.PerISASymbols,
	}, objects...)
	if err != nil {
		return fatal(err)
	}
	printImage(stdout, im)
	return 0
}

func loadInput(path string) (*multibin.Object, error) {
	if strings.HasSuffix(path, ".fobj") {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		var obj multibin.Object
		if err := gob.NewDecoder(f).Decode(&obj); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return &obj, nil
	}
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return asm.Assemble(path, string(src))
}

func printImage(w io.Writer, im *multibin.Image) {
	fmt.Fprintf(w, "entry %#x\n\n", im.Entry)
	fmt.Fprintln(w, "segments (loader NX marking in brackets):")
	for _, seg := range im.Segments {
		nx := "NX=1"
		if seg.Kind == multibin.SecText && isa.IsHost(seg.ISA) {
			nx = "NX=0"
		}
		note := ""
		if seg.Kind == multibin.SecText && !isa.IsHost(seg.ISA) {
			note = "  (host execution faults here → migration)"
		}
		fmt.Fprintf(w, "  %-12s %v  [%#010x, %#010x)  %6d bytes  [%s]%s\n",
			seg.Name, seg.ISA, seg.VA, seg.End(), len(seg.Bytes), nx, note)
	}
	fmt.Fprintln(w, "\nsymbols:")
	names := make([]string, 0, len(im.Symbols))
	for n := range im.Symbols {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return im.Symbols[names[i]] < im.Symbols[names[j]] })
	for _, n := range names {
		va := im.Symbols[n]
		loc := "data"
		if target, ok := im.TextISA(va); ok {
			loc = target.String() + " text"
		}
		fmt.Fprintf(w, "  %#010x  %-28s %s\n", va, n, loc)
	}
}
