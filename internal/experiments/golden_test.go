package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/metrics"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current code")

// storePath lists the experiments that drive the content store and the
// DHT. They are cheap, so -short still checks their goldens.
var storePath = []string{"E2", "E3", "E4", "E6", "E7"}

// hostTimed names the columns that read the host's clock, per
// experiment. The goldens record them as "~"; everything else an
// experiment prints is a function of the seed.
var hostTimed = map[string][]string{
	"E9": {"merge ns/op", "gallop ns/op", "speedup"},
}

// TestStorePathGoldens checks the store-path experiments' goldens (see
// checkGolden). It is the golden check that -short keeps.
func TestStorePathGoldens(t *testing.T) {
	for _, id := range storePath {
		t.Run(id, func(t *testing.T) {
			e, ok := ByID(id)
			if !ok {
				t.Fatalf("%s not registered", id)
			}
			checkGolden(t, e)
		})
	}
}

// TestAllExperimentsProduceTables checks every registered experiment's
// golden (see checkGolden). It is heavyweight and skipped under -short,
// where TestStorePathGoldens covers the store path. Regenerate with
// `go test ./internal/experiments -run TestAllExperimentsProduceTables -update`,
// only when a change is meant to move a table.
func TestAllExperimentsProduceTables(t *testing.T) {
	if testing.Short() {
		t.Skip("heavyweight; -short checks the store-path goldens only")
	}
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) { checkGolden(t, e) })
	}
}

// checkGolden runs e at seed 1 and compares its tables byte for byte
// with testdata/<ID>.golden, host-timed columns masked. A table moves
// only when a simulated cost, a message count or an answer does. With
// -update it rewrites the golden instead.
func checkGolden(t *testing.T, e Experiment) {
	t.Helper()
	var out bytes.Buffer
	for _, table := range e.Run(1) {
		out.WriteString(mask(table, hostTimed[e.ID]).String())
		out.WriteByte('\n')
	}
	path := filepath.Join("testdata", e.ID+".golden")
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
		t.Fatalf("%s tables differ from %s:\n%s", e.ID, path, out.String())
	}
}

// mask returns a copy of table with every cell of the named columns
// replaced by "~", or table itself when no column is named.
func mask(table *metrics.Table, columns []string) *metrics.Table {
	if len(columns) == 0 {
		return table
	}
	out := metrics.NewTable(table.Title, table.Columns...)
	for r := 0; r < table.Rows(); r++ {
		row := make([]any, len(table.Columns))
		for c, name := range table.Columns {
			row[c] = table.Cell(r, c)
			if slices.Contains(columns, name) {
				row[c] = "~"
			}
		}
		out.AddRow(row...)
	}
	return out
}
