package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// link writes src to a .fasm file, runs flickld on it and returns the
// image map, failing the test unless flickld exits 0.
func link(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.fasm")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr:\n%s", code, stderr.String())
	}
	return stdout.String()
}

// TestLinksStdlibCalls links a program whose host and nxp code call the
// runtime's memory utilities and print_str: every routed variant must
// resolve, and no family the input carries no text for may be linked.
func TestLinksStdlibCalls(t *testing.T) {
	out := link(t, `
.func main isa=host
    movi a0, 16
    call malloc
    mov  a1, a0
    movi a2, 16
    call memcpy
    call print_str
    call board_len
    halt
.endfunc
.func board_len isa=nxp
    movi a1, 0
    movi a2, 8
    call memset
    call strlen
    ret
.endfunc
`)
	for _, sym := range []string{"memcpy.host", "print_str", "memset.nxp", "strlen.nxp", "__flick_nxp_handler"} {
		if !strings.Contains(out, " "+sym+" ") {
			t.Errorf("image map lacks %s:\n%s", sym, out)
		}
	}
	for _, absent := range []string{".text.dsp", ".text.cmp"} {
		if strings.Contains(out, absent) {
			t.Errorf("image links %s, which no input carries:\n%s", absent, out)
		}
	}
}

// TestLinksBoardFamilyFromInputs links cmp code alone: the library's cmp
// half comes in because the input carries cmp text, and the nxp half
// stays out.
func TestLinksBoardFamilyFromInputs(t *testing.T) {
	out := link(t, `
.func main isa=host
    call f
    halt
.endfunc
.func f isa=cmp
    movi a2, 4
    call memcpy
    ret
.endfunc
`)
	if !strings.Contains(out, " memcpy.cmp ") || !strings.Contains(out, " __flick_cmp_handler ") {
		t.Errorf("image map lacks the cmp library:\n%s", out)
	}
	if strings.Contains(out, ".text.nxp") {
		t.Errorf("image links .text.nxp, which no input carries:\n%s", out)
	}
}
