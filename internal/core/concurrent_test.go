package core_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"clydesdale/internal/colstore"
	"clydesdale/internal/core"
	"clydesdale/internal/records"
	"clydesdale/internal/refexec"
	"clydesdale/internal/results"
	"clydesdale/internal/ssb"
)

// TestConcurrentQueries runs several queries simultaneously over the same
// cluster and engine — the multi-workload setting §8 leaves as future work
// for scheduling policy, but which the engine must at least execute
// correctly (slots are shared, JVM pools are per job, memory accounting is
// global).
func TestConcurrentQueries(t *testing.T) {
	e := newEnv(t, 3, 0.002)
	eng := e.engine(core.Options{})
	names := []string{"Q1.1", "Q2.1", "Q3.2", "Q4.3"}

	var wg sync.WaitGroup
	errs := make([]error, len(names))
	sets := make([]*results.ResultSet, len(names))
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			q, err := ssb.QueryByName(name)
			if err != nil {
				errs[i] = err
				return
			}
			rs, _, err := eng.Run(context.Background(), q)
			sets[i], errs[i] = rs, err
		}(i, name)
	}
	wg.Wait()

	for i, name := range names {
		if errs[i] != nil {
			t.Fatalf("%s: %v", name, errs[i])
		}
		q, _ := ssb.QueryByName(name)
		want, err := refexec.RunLogical(q, e.gen.Each)
		if err != nil {
			t.Fatal(err)
		}
		if ok, why := results.Equivalent(sets[i], want, 1e-9); !ok {
			t.Errorf("%s under concurrency: %s", name, why)
		}
	}
	for _, n := range e.cluster.Nodes() {
		if used := n.MemoryUsed(); used != 0 {
			t.Errorf("%s leaked %d bytes", n.ID(), used)
		}
	}
}

// TestConcurrentMixedEngines runs Clydesdale and the staged plan at once.
func TestConcurrentMixedEngines(t *testing.T) {
	e := newEnv(t, 2, 0.002)
	eng := e.engine(core.Options{})
	q1, _ := ssb.QueryByName("Q2.2")
	q2, _ := ssb.QueryByName("Q3.3")

	var wg sync.WaitGroup
	var rs1, rs2 *results.ResultSet
	var err1, err2 error
	wg.Add(2)
	go func() { defer wg.Done(); rs1, _, err1 = eng.Run(context.Background(), q1) }()
	go func() { defer wg.Done(); rs2, _, err2 = runStaged(eng, q2) }()
	wg.Wait()
	if err1 != nil || err2 != nil {
		t.Fatalf("errs: %v / %v", err1, err2)
	}
	w1, _ := refexec.RunLogical(q1, e.gen.Each)
	w2, _ := refexec.RunLogical(q2, e.gen.Each)
	if ok, why := results.Equivalent(rs1, w1, 1e-9); !ok {
		t.Errorf("Q2.2: %s", why)
	}
	if ok, why := results.Equivalent(rs2, w2, 1e-9); !ok {
		t.Errorf("Q3.3 staged: %s", why)
	}
}

// TestDimMemoUnderConcurrentAppends plans and runs queries from several
// goroutines while a writer appends suppliers without invalidating: the
// driver's generation-keyed memo is shared by all of them. Each reader
// must see supplier counts that only grow, in whole appends, and the
// final plan must count every appended row.
func TestDimMemoUnderConcurrentAppends(t *testing.T) {
	e := newEnv(t, 2, 0.002)
	eng := e.engine(core.Options{})
	q, err := ssb.QueryByName("Q3.1")
	if err != nil {
		t.Fatal(err)
	}
	dir, err := e.lay.Catalog().DimDir(ssb.TableSupplier)
	if err != nil {
		t.Fatal(err)
	}
	base := e.gen.SupplierRows()
	const appends, perAppend = 6, 3

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errs := make([]error, 3)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			last := int64(0)
			for {
				select {
				case <-stop:
					return
				default:
				}
				st, err := eng.PlanStats(q)
				if err != nil {
					errs[i] = err
					return
				}
				rows := st.Tables[ssb.TableSupplier].Rows
				if rows < last || (rows-base)%perAppend != 0 || rows > base+appends*perAppend {
					errs[i] = fmt.Errorf("supplier rows %d after %d", rows, last)
					return
				}
				last = rows
				if i == 0 {
					if _, _, err := eng.Run(context.Background(), q); err != nil {
						errs[i] = err
						return
					}
				}
			}
		}(i)
	}
	next := base
	for a := 0; a < appends; a++ {
		if _, err := colstore.AppendRowTable(e.fs, dir, func(emit func(records.Record) error) error {
			for j := 0; j < perAppend; j++ {
				next++
				if err := emit(e.gen.Supplier(next - 1)); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("reader %d: %v", i, err)
		}
	}
	st, err := eng.PlanStats(q)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := st.Tables[ssb.TableSupplier].Rows, base+appends*perAppend; got != want {
		t.Fatalf("supplier rows after appends = %d, want %d", got, want)
	}
}
