package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestGolden runs the example and compares its output byte for byte with
// testdata/stdout.golden. Regenerate with
// `go run ./examples/<name> > examples/<name>/testdata/stdout.golden`,
// only when a change is meant to move answers.
func TestGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "stdout.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("output differs from testdata/stdout.golden:\n%s", out.String())
	}
}
