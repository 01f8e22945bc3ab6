package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestGolden runs the command and compares its output byte for byte with
// testdata. The output prints no simulated cost — results, scores, ranks,
// chain height, honey — so it moves only when the pipeline's answers do.
// Regenerate with `go run ./cmd/queenbee [args] > cmd/queenbee/testdata/<name>.golden`.
func TestGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"default", nil},
		{"peers24_query", []string{"-peers", "24", "-bees", "6", "-docs", "40", "-query", "kiba beba"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(tc.args, &out); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Fatalf("output differs from testdata/%s.golden:\n%s", tc.golden, out.String())
			}
		})
	}
}
