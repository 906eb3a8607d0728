package plan_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"clydesdale/internal/core"
	"clydesdale/internal/plan"
	"clydesdale/internal/ssb"
)

var update = flag.Bool("update", false, "rewrite the golden plan files")

// statsFor builds the chooser's inputs from generator rows instead of
// stored tables: the engine's one dimension-stats estimator
// (core.EstimateDimStats), a fixed SF-1 fact cardinality, and a pinned
// cluster geometry so the golden costs are stable.
func statsFor(t *testing.T, gen *ssb.Generator, l *plan.Logical) *plan.Stats {
	t.Helper()
	sh, err := plan.Decompose(l)
	if err != nil {
		t.Fatal(err)
	}
	per, err := core.EstimateDimStats(sh.Joins, gen.Each)
	if err != nil {
		t.Fatal(err)
	}
	tables := make(map[string]plan.TableStats, len(sh.Joins))
	for i := range sh.Joins {
		tables[sh.Joins[i].Table] = per[i]
	}
	return &plan.Stats{
		FactRows:      gen.LineorderRows(),
		Tables:        tables,
		Nodes:         5,
		MapSlots:      2,
		MemoryPerNode: 512 << 20,
	}
}

// TestSSBGoldenPlans pins the chooser's output for all 13 SSB queries:
// bind the SQL to the IR, cost with SF-1 statistics, explain, and compare against
// testdata/<query>.golden. Regenerate with `go test ./internal/plan
// -run GoldenPlans -update`. Every SSB query is a pure star on a cluster
// with memory to spare, so the chosen kind must always be the single-pass
// star join.
func TestSSBGoldenPlans(t *testing.T) {
	gen := ssb.NewGenerator(1, 42)
	for _, q := range ssb.Queries() {
		phys, err := plan.Choose(q, statsFor(t, gen, q))
		if err != nil {
			t.Fatalf("%s: %v", q.Name, err)
		}
		if phys.Kind != plan.KindStar {
			t.Errorf("%s: chose %s, want %s", q.Name, phys.Kind, plan.KindStar)
		}
		var buf bytes.Buffer
		if err := plan.Explain(&buf, phys); err != nil {
			t.Fatalf("%s: explain: %v", q.Name, err)
		}
		golden := filepath.Join("testdata", q.Name+".golden")
		if *update {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("%s: %v (regenerate with -update)", q.Name, err)
		}
		if !bytes.Equal(buf.Bytes(), want) {
			t.Errorf("%s: plan text changed (regenerate with -update if intended)\ngot:\n%s\nwant:\n%s",
				q.Name, buf.String(), want)
		}
	}
}
