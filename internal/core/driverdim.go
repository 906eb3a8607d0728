package core

import (
	"strings"
	"sync"

	"clydesdale/internal/colstore"
	"clydesdale/internal/hdfs"
	"clydesdale/internal/plan"
)

// The driver's dimension reads — plan statistics, admission estimates, the
// FK-range prune hints and semi-join blooms, cascade side tables — go
// through one encoded copy of each dimension's HDFS master, memoized by the
// master's generation (colstore.RowTableGeneration). A read re-encodes the
// copy only when the table's data files changed, and everything derived
// from the copy is memoized beside it, so an append is seen by the next
// query whether or not its writer called InvalidateTable. The copy stays in
// driver memory: memo hits charge no I/O.
//
// A query looks its tables up once (Engine.dimView): one generation check
// per joined table, and every dimension read of the query — node-copy
// freshness included — sees that one generation.

// driverDim is one dimension's memo entry for generation gen. The copy is
// encoded on first use, so a query that derives nothing from it (pruning
// and blooms off, statistics not asked for) reads no master bytes. mu
// guards copy and the derived maps.
type driverDim struct {
	fs  *hdfs.FileSystem
	dir string
	gen uint64

	mu    sync.Mutex
	copy  *colstore.DimCopy
	stats map[string]plan.TableStats // by edgeKey
	scans map[string]*dimScan        // by FK + predicate
}

// open returns the entry's encoded copy of the master; a failed read is
// retried by the next call. Should the table have grown since gen was
// taken, the copy holds the newer rows (a superset is sound for every use)
// and the next lookup re-keys the memo.
func (d *driverDim) open() (*colstore.DimCopy, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.copy == nil {
		data, err := colstore.CopyRowTable(d.fs, d.dir, "")
		if err != nil {
			return nil, err
		}
		c, err := colstore.OpenDimCopy(data)
		if err != nil {
			return nil, err
		}
		d.copy = c
	}
	return d.copy, nil
}

// edgeKey names what an edge selects from its table.
func edgeKey(e *plan.JoinEdge) string {
	pred := ""
	if e.Pred != nil {
		pred = e.Pred.String()
	}
	return e.PK + "|" + pred + "|" + strings.Join(e.Aux, ",")
}

// driverDim returns the memo entry of the table's current generation,
// replacing a missing or stale one.
func (e *Engine) driverDim(table string) (*driverDim, error) {
	dir, err := e.cat.DimDir(table)
	if err != nil {
		return nil, err
	}
	fs := e.mr.FS()
	gen, err := colstore.RowTableGeneration(fs, dir)
	if err != nil {
		return nil, err
	}
	e.dimMu.Lock()
	d := e.dims[table]
	e.dimMu.Unlock()
	if d != nil && d.gen == gen {
		return d, nil
	}
	d = &driverDim{fs: fs, dir: dir, gen: gen,
		stats: make(map[string]plan.TableStats), scans: make(map[string]*dimScan)}
	e.dimMu.Lock()
	if e.dims == nil {
		e.dims = make(map[string]*driverDim)
	}
	e.dims[table] = d
	e.dimMu.Unlock()
	return d, nil
}

// dimView is one query's view of its joined dimensions: each table's memo
// entry, looked up once.
type dimView map[string]*driverDim

// dimView looks up the memo entry of every table the edges join.
func (e *Engine) dimView(edges []plan.JoinEdge) (dimView, error) {
	v := make(dimView, len(edges))
	for i := range edges {
		t := edges[i].Table
		if _, ok := v[t]; ok {
			continue
		}
		d, err := e.driverDim(t)
		if err != nil {
			return nil, err
		}
		v[t] = d
	}
	return v, nil
}

// DimStats returns the statistics of each join edge (in order) over the
// tables' current contents: row count, filtered row count and the two
// hash-table footprints (see dimStatsOf). Results are memoized per table
// generation and edge.
func (e *Engine) DimStats(edges []plan.JoinEdge) ([]plan.TableStats, error) {
	v, err := e.dimView(edges)
	if err != nil {
		return nil, err
	}
	return v.stats(edges)
}

// stats is DimStats over the view's generations.
func (v dimView) stats(edges []plan.JoinEdge) ([]plan.TableStats, error) {
	out := make([]plan.TableStats, len(edges))
	for i := range edges {
		edge := &edges[i]
		d := v[edge.Table]
		key := edgeKey(edge)
		d.mu.Lock()
		ts, ok := d.stats[key]
		d.mu.Unlock()
		if !ok {
			c, err := d.open()
			if err != nil {
				return nil, err
			}
			rows, err := c.Select(edge.PK, edge.Pred, edge.Aux)
			if err != nil {
				return nil, err
			}
			ts = dimStatsOf(rows)
			d.mu.Lock()
			d.stats[key] = ts
			d.mu.Unlock()
		}
		out[i] = ts
	}
	return out, nil
}

// cacheOnNodes gives every live node a local copy, at the view's
// generation, of each table the edges join (EnsureDimCached without its
// generation check).
func (v dimView) cacheOnNodes(fs *hdfs.FileSystem, edges []plan.JoinEdge) error {
	done := make(map[string]bool, len(edges))
	for i := range edges {
		d := v[edges[i].Table]
		if done[d.dir] {
			continue
		}
		done[d.dir] = true
		if _, err := ensureDimGen(fs, d.dir, d.gen); err != nil {
			return err
		}
	}
	return nil
}

// InvalidateTable drops everything memoized for a table's current and
// earlier generations — its encoded copy, statistics, FK-range prune hints
// and semi-join blooms. Reads already re-derive after an append (the memo
// is keyed by the table's generation); calling this after a roll-in only
// frees the stale entry early. serve.Session.RollIn wires it into its
// invalidation fan-out. Returns the entries dropped, the copy included.
func (e *Engine) InvalidateTable(table string) int {
	e.dimMu.Lock()
	d, ok := e.dims[table]
	delete(e.dims, table)
	e.dimMu.Unlock()
	if !ok {
		return 0
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return 1 + len(d.stats) + len(d.scans)
}
