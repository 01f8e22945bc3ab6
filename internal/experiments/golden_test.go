package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current code")

// TestStorePathGoldens runs the experiments that drive the content store
// and the DHT (E2, E3, E4, E6, E7) at seed 1 and compares their tables
// byte for byte with testdata/<ID>.golden. None of these tables prints a
// wall-clock figure, so they move only when a simulated cost, a message
// count or an answer does. Regenerate with
// `go test ./internal/experiments -run TestStorePathGoldens -update`,
// only when a change is meant to move them.
func TestStorePathGoldens(t *testing.T) {
	for _, id := range []string{"E2", "E3", "E4", "E6", "E7"} {
		t.Run(id, func(t *testing.T) {
			e, ok := ByID(id)
			if !ok {
				t.Fatalf("%s not registered", id)
			}
			var out bytes.Buffer
			for _, table := range e.Run(1) {
				out.WriteString(table.String())
				out.WriteByte('\n')
			}
			path := filepath.Join("testdata", id+".golden")
			if *update {
				if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Fatalf("%s tables differ from %s:\n%s", id, path, out.String())
			}
		})
	}
}
