package main

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"
)

// TestTablesGolden regenerates every table and figure in-process and
// compares the output byte for byte with testdata/tables.golden, recorded
// before the simulator's host-cost optimisations. It covers what the
// sim-tables benchmark golden does not: the Fig. 13 cluster and SRAM
// sweeps, HELR training, Table 6 and Table 7.
func TestTablesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/tables.golden")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := run(nil, &got, io.Discard); err != nil {
		t.Fatalf("run: %v", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("line %d differs from the golden:\n got: %q\nwant: %q", i+1, g, w)
		}
	}
}

func TestUnknownSelector(t *testing.T) {
	if err := run([]string{"-only", "table99"}, io.Discard, io.Discard); err == nil {
		t.Fatal("unknown selector accepted")
	}
}
