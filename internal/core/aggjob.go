package core

import (
	"context"
	"fmt"

	"clydesdale/internal/colstore"
	"clydesdale/internal/expr"
	"clydesdale/internal/mr"
	"clydesdale/internal/plan"
	"clydesdale/internal/records"
	"clydesdale/internal/results"
)

// runAggJob is the final grouped-SUM job shared by the staged and cascade
// executors: it sums the shape's measure grouped by its group-by columns
// over a row-table intermediate.
func (e *Engine) runAggJob(ctx context.Context, name string, sh *plan.Shape, inDir string, inSchema *records.Schema) (*results.ResultSet, *mr.JobResult, error) {
	aggFn, err := expr.CompileNum(sh.Agg, inSchema)
	if err != nil {
		return nil, nil, err
	}
	gIdx := make([]int, len(sh.GroupBy))
	for i, g := range sh.GroupBy {
		j := inSchema.Index(g)
		if j < 0 {
			return nil, nil, fmt.Errorf("core: aggregation input lacks group column %s", g)
		}
		gIdx[i] = j
	}
	numReduce := e.opts.Reducers
	if len(sh.GroupBy) == 0 {
		numReduce = 1
	}
	gschema := sh.GroupSchema()
	out := &mr.MemoryOutput{}
	job := &mr.Job{
		Name:   name,
		Conf:   e.jobConf(false),
		Input:  &colstore.RowInput{Dir: inDir, Schema: inSchema},
		Output: out,
		NewMapper: func() mr.Mapper {
			return mr.MapperFunc(func(_, v records.Record, c mr.Collector) error {
				keyVals := make([]records.Value, len(gIdx))
				for i, ix := range gIdx {
					keyVals[i] = v.At(ix)
				}
				return c.Collect(records.Make(gschema, keyVals...),
					records.Make(aggValueSchema, records.Float(aggFn(v))))
			})
		},
		NewReducer:     func() mr.Reducer { return sumReducer{} },
		NewCombiner:    func() mr.Reducer { return sumReducer{} },
		NumReduceTasks: numReduce,
		KeySchema:      gschema,
		ValueSchema:    aggValueSchema,
	}
	res, err := e.mr.Submit(ctx, job)
	if err != nil {
		return nil, nil, err
	}
	return collectRows(sh.ResultSchema(), len(sh.GroupBy) > 0, out), res, nil
}

// collectRows turns grouped-SUM reduce output into a result set.
func collectRows(schema *records.Schema, grouped bool, out *mr.MemoryOutput) *results.ResultSet {
	rs := &results.ResultSet{Schema: schema}
	pairs := out.Pairs()
	if len(pairs) == 0 && !grouped {
		// Grand aggregate over an empty selection: one zero row.
		rs.Rows = append(rs.Rows, records.Make(schema, records.Float(0)))
		return rs
	}
	for _, kv := range pairs {
		vals := make([]records.Value, 0, schema.Len())
		vals = append(vals, kv.Key.Values()...)
		vals = append(vals, records.Float(kv.Value.At(0).Float64()))
		rs.Rows = append(rs.Rows, records.Make(schema, vals...))
	}
	return rs
}
