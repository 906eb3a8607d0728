package plan

import (
	"fmt"
	"sort"

	"clydesdale/internal/records"
)

// Strategy is the physical operator chosen for one join step.
type Strategy uint8

const (
	// StrategyStar probes a shared in-memory dimension hash table inside
	// the single Clydesdale star-join pass.
	StrategyStar Strategy = iota
	// StrategyMapJoin broadcasts a driver-built hash table to every map
	// task of a dedicated stage (Hive mapjoin).
	StrategyMapJoin
	// StrategyRepartition shuffles both sides on the join key (Hive
	// common join).
	StrategyRepartition
	// StrategyCascade probes a bucketed side table against a probe stream
	// already hash-partitioned on the join key, so the join is map-side
	// with no intervening reduce.
	StrategyCascade
)

func (s Strategy) String() string {
	switch s {
	case StrategyStar:
		return "star"
	case StrategyMapJoin:
		return "mapjoin"
	case StrategyRepartition:
		return "repartition"
	case StrategyCascade:
		return "cascade"
	}
	return fmt.Sprintf("strategy(%d)", s)
}

// Kind is the overall physical shape of a plan.
type Kind uint8

const (
	// KindStar is the single-pass Clydesdale star join.
	KindStar Kind = iota
	// KindStaged is the Hive-style sequence of per-join stages.
	KindStaged
	// KindCascade is the cascading map-side join: one star pass over the
	// depth-1 edges emitting output co-partitioned on the first deep join
	// key, then one map-only join pass per deeper edge.
	KindCascade
)

func (k Kind) String() string {
	switch k {
	case KindStar:
		return "star"
	case KindStaged:
		return "staged"
	case KindCascade:
		return "cascade"
	}
	return fmt.Sprintf("kind(%d)", k)
}

// TableStats are the chooser's per-table cardinality inputs.
type TableStats struct {
	// Rows is the table's total row count.
	Rows int64
	// FilteredRows is the row count surviving the table's predicate.
	FilteredRows int64
	// HashBytes is the open-addressing dimension hash table footprint
	// (the core.EstimateDimStats model).
	HashBytes int64
	// MapJoinBytes is the boxed java-style hash table footprint
	// (48 bytes/entry + aux, the hive mapjoin model).
	MapJoinBytes int64
}

// Stats feed the cost model: fact cardinality from zone-map partition
// stats, per-dimension build sizes from the unified hash estimators, and
// the cluster geometry the plan will run on. A nil or partial Stats is
// legal — missing numbers fall back to documented defaults so the chooser
// still ranks strategies sensibly.
type Stats struct {
	FactRows int64
	Tables   map[string]TableStats
	// Nodes and MapSlots describe the cluster; MemoryPerNode caps what
	// map-side hash tables may pin.
	Nodes         int
	MapSlots      int
	MemoryPerNode int64
	// DefaultBuckets overrides the bucket count of co-partitioned
	// intermediates (defaults to Nodes × MapSlots).
	DefaultBuckets int
}

const (
	defaultFactRows  = 1_000_000
	defaultTableRows = 1_000
	defaultNodes     = 4
	defaultMapSlots  = 2
	defaultNodeMem   = 512 << 20
)

func (s *Stats) factRows() int64 {
	if s == nil || s.FactRows <= 0 {
		return defaultFactRows
	}
	return s.FactRows
}

func (s *Stats) table(name string) TableStats {
	if s != nil {
		if ts, ok := s.Tables[name]; ok {
			if ts.Rows <= 0 {
				ts.Rows = defaultTableRows
			}
			if ts.FilteredRows < 0 {
				ts.FilteredRows = 0
			}
			return ts
		}
	}
	return TableStats{Rows: defaultTableRows, FilteredRows: defaultTableRows}
}

func (s *Stats) nodes() int {
	if s == nil || s.Nodes <= 0 {
		return defaultNodes
	}
	return s.Nodes
}

func (s *Stats) mapSlots() int {
	if s == nil || s.MapSlots <= 0 {
		return defaultMapSlots
	}
	return s.MapSlots
}

func (s *Stats) nodeMemory() int64 {
	if s == nil || s.MemoryPerNode <= 0 {
		return defaultNodeMem
	}
	return s.MemoryPerNode
}

func (s *Stats) buckets() int {
	if s != nil && s.DefaultBuckets > 0 {
		return s.DefaultBuckets
	}
	n := s.nodes() * s.mapSlots()
	if n < 1 {
		n = 1
	}
	return n
}

// MapJoinEntryBytes models one boxed hash table entry of a Hive-style
// mapjoin or a cascade side table: object headers plus the carried aux
// payload. core.EstimateDimStats, the Hive mapjoin loader and the cascade
// side-table loader all charge this, so the cost model and the executors
// agree byte for byte.
func MapJoinEntryBytes(aux []records.Value) int64 {
	n := int64(48)
	for _, v := range aux {
		n += v.MemSize()
	}
	return n
}

// Physical is a costed physical plan: the shape plus per-step strategies
// and, for cascades, partitioning properties.
type Physical struct {
	Shape *Shape
	Kind  Kind
	Steps []Step
	// Buckets is the bucket count of co-partitioned intermediates
	// (cascade plans only).
	Buckets  int
	Cost     float64
	Feasible bool
	// Reason explains infeasibility, or summarizes why the plan costs
	// what it does.
	Reason string
	// Alternatives summarizes the other candidates considered, in the
	// fixed order star, staged, cascade (minus the winner).
	Alternatives []Alternative
}

// Alternative is the one-line summary of a rejected candidate.
type Alternative struct {
	Kind     Kind
	Cost     float64
	Feasible bool
	Reason   string
}

// Cost model weights, in abstract row units: reading or writing a row
// costs 1, probing a hash table cProbe, and moving a row through the
// shuffle (serialize + sort + deserialize) cShuffle.
const (
	cProbe   = 0.25
	cShuffle = 3.0
)

// Candidates builds every physical plan the chooser considers — star,
// staged, cascade — with feasibility and cost filled in. Exported so the
// property tests can execute every lowering, not just the winner.
func Candidates(l *Logical, st *Stats) ([]*Physical, error) {
	sh, err := Decompose(l)
	if err != nil {
		return nil, err
	}
	star, err := starCandidate(sh, st)
	if err != nil {
		return nil, err
	}
	staged, err := stagedCandidate(sh, st)
	if err != nil {
		return nil, err
	}
	cascade, err := cascadeCandidate(sh, st)
	if err != nil {
		return nil, err
	}
	return []*Physical{star, staged, cascade}, nil
}

// Choose picks the cheapest feasible candidate and records the others as
// alternatives.
func Choose(l *Logical, st *Stats) (*Physical, error) {
	cands, err := Candidates(l, st)
	if err != nil {
		return nil, err
	}
	var best *Physical
	for _, c := range cands {
		if !c.Feasible {
			continue
		}
		if best == nil || c.Cost < best.Cost {
			best = c
		}
	}
	if best == nil {
		return nil, fmt.Errorf("plan: no feasible physical plan for %s", l.Name)
	}
	for _, c := range cands {
		if c == best {
			continue
		}
		best.Alternatives = append(best.Alternatives, Alternative{
			Kind: c.Kind, Cost: c.Cost, Feasible: c.Feasible, Reason: c.Reason,
		})
	}
	return best, nil
}

// selectivity of a table's predicate, clamped to [0, 1].
func selectivity(ts TableStats) float64 {
	if ts.Rows <= 0 {
		return 1
	}
	s := float64(ts.FilteredRows) / float64(ts.Rows)
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

func starCandidate(sh *Shape, st *Stats) (*Physical, error) {
	steps, err := sh.Linearize()
	if err != nil {
		return nil, err
	}
	p := &Physical{Shape: sh, Kind: KindStar, Steps: steps}
	for i := range p.Steps {
		ts := st.table(p.Steps[i].Table)
		p.Steps[i].Strategy = StrategyStar
		p.Steps[i].BuildRows = ts.FilteredRows
		p.Steps[i].BuildBytes = ts.HashBytes
	}
	if d := sh.MaxDepth(); d > 1 {
		p.Reason = fmt.Sprintf("snowflake join chain (depth %d) cannot probe the fact directly", d)
		return p, nil
	}
	var hashBytes, buildRows int64
	for i := range p.Steps {
		hashBytes += p.Steps[i].BuildBytes
		buildRows += p.Steps[i].BuildRows
	}
	if hashBytes > st.nodeMemory() {
		p.Reason = fmt.Sprintf("dimension hash tables ~%d bytes exceed node memory %d", hashBytes, st.nodeMemory())
		return p, nil
	}
	p.Feasible = true
	rows := float64(st.factRows())
	cost := rows // fact scan
	for i := range p.Steps {
		ts := st.table(p.Steps[i].Table)
		cost += rows * cProbe
		rows *= selectivity(ts)
	}
	cost += float64(st.nodes()) * float64(buildRows) // per-node builds
	cost += rows                                     // aggregate
	p.Cost = cost
	p.Reason = "single pass, dimensions cached per node"
	return p, nil
}

func stagedCandidate(sh *Shape, st *Stats) (*Physical, error) {
	steps, err := sh.Linearize()
	if err != nil {
		return nil, err
	}
	p := &Physical{Shape: sh, Kind: KindStaged, Steps: steps, Feasible: true}
	slotMem := st.nodeMemory() / int64(st.mapSlots())
	loaders := float64(st.nodes() * st.mapSlots())
	rows := float64(st.factRows())
	cost := rows // fact scan of the first stage
	nMapjoin, nRepart := 0, 0
	for i := range p.Steps {
		ts := st.table(p.Steps[i].Table)
		p.Steps[i].BuildRows = ts.FilteredRows
		build := float64(ts.FilteredRows)
		// Mapjoin: driver build + per-task hash reloads + probes.
		mapjoin := build + loaders*build + rows*cProbe
		// Repartition: both sides through the shuffle.
		repart := cShuffle*(rows+build) + rows*cProbe
		if ts.MapJoinBytes <= slotMem && mapjoin <= repart {
			p.Steps[i].Strategy = StrategyMapJoin
			p.Steps[i].BuildBytes = ts.MapJoinBytes
			cost += mapjoin
			nMapjoin++
		} else {
			p.Steps[i].Strategy = StrategyRepartition
			p.Steps[i].BuildBytes = ts.MapJoinBytes
			cost += repart
			nRepart++
		}
		rows *= selectivity(ts)
		// Every stage materializes its output to HDFS and the next stage
		// reads it back.
		cost += 2 * rows
	}
	cost += rows // aggregate stage
	p.Cost = cost
	p.Reason = fmt.Sprintf("%d mapjoin + %d repartition stages, intermediates on HDFS", nMapjoin, nRepart)
	return p, nil
}

func cascadeCandidate(sh *Shape, st *Stats) (*Physical, error) {
	if sh.MaxDepth() < 2 {
		steps, err := sh.Linearize()
		if err != nil {
			return nil, err
		}
		return &Physical{
			Shape: sh, Kind: KindCascade, Steps: steps,
			Reason: "no snowflake edges to cascade into",
		}, nil
	}
	// Cascade order: depth first, then smaller filtered build side first.
	// Parents have strictly smaller depth than children, so sorting by
	// depth is topologically safe.
	order := make([]int, len(sh.Joins))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ea, eb := &sh.Joins[order[a]], &sh.Joins[order[b]]
		if ea.Depth != eb.Depth {
			return ea.Depth < eb.Depth
		}
		return st.table(ea.Table).FilteredRows < st.table(eb.Table).FilteredRows
	})
	steps, err := sh.Pipeline(order)
	if err != nil {
		return nil, err
	}
	p := &Physical{Shape: sh, Kind: KindCascade, Steps: steps, Buckets: st.buckets()}
	var headHash, headBuild int64
	head := 0
	for i := range p.Steps {
		ts := st.table(p.Steps[i].Table)
		p.Steps[i].BuildRows = ts.FilteredRows
		if p.Steps[i].Depth == 1 {
			p.Steps[i].Strategy = StrategyStar
			p.Steps[i].BuildBytes = ts.HashBytes
			headHash += ts.HashBytes
			headBuild += ts.FilteredRows
			head++
		} else {
			p.Steps[i].Strategy = StrategyCascade
			p.Steps[i].BuildBytes = ts.MapJoinBytes
		}
	}
	// Partitioning properties: the star pass delivers the first deep
	// step's requirement; every deep step requires its own key and
	// delivers the next one's.
	for i := head; i < len(p.Steps); i++ {
		p.Steps[i].Require = Partitioning{Key: p.Steps[i].FK, Buckets: p.Buckets}
		p.Steps[i-1].Deliver = Partitioning{Key: p.Steps[i].FK, Buckets: p.Buckets}
	}
	if headHash > st.nodeMemory() {
		p.Reason = fmt.Sprintf("depth-1 hash tables ~%d bytes exceed node memory %d", headHash, st.nodeMemory())
		return p, nil
	}
	p.Feasible = true
	rows := float64(st.factRows())
	cost := rows // fact scan
	for i := 0; i < head; i++ {
		cost += rows * cProbe
		rows *= selectivity(st.table(p.Steps[i].Table))
	}
	cost += float64(st.nodes()) * float64(headBuild) // per-node star builds
	cost += 2 * rows                                 // bucketed intermediate write + read
	for i := head; i < len(p.Steps); i++ {
		ts := st.table(p.Steps[i].Table)
		build := float64(ts.FilteredRows)
		// Driver scans the side table once and each map task loads only
		// its bucket, so the build side moves ~twice in total — not once
		// per map slot like a broadcast mapjoin, and never through a
		// shuffle.
		cost += ts.rowsF() + build + rows*cProbe
		rows *= selectivity(ts)
		cost += 2 * rows // next co-partitioned intermediate (or final agg input)
	}
	cost += rows // aggregate
	p.Cost = cost
	p.Reason = fmt.Sprintf("star pass + %d shuffle-free map-side joins", len(p.Steps)-head)
	return p, nil
}

func (ts TableStats) rowsF() float64 { return float64(ts.Rows) }
