package hive

import (
	"context"
	"fmt"

	"clydesdale/internal/colstore"
	"clydesdale/internal/expr"
	"clydesdale/internal/mr"
	"clydesdale/internal/records"
)

// The repartition (common) join: map tasks read both the big side and the
// dimension table, tag each record with its source, and emit it keyed by
// the join column; reducers collect each key's dimension row(s) and stream
// the big-side rows against them (§6.1). Both tables cross the shuffle.

// Source tags.
const (
	tagDim  = int64(0)
	tagFact = int64(1)
)

// taggedInput unions several input formats, tagging each split with its
// source index (delivered to the mapper as the record key).
type taggedInput struct {
	sources []mr.InputFormat
}

type taggedSplit struct {
	inner  mr.InputSplit
	source int
}

func (s *taggedSplit) Locations() []string { return s.inner.Locations() }
func (s *taggedSplit) Length() int64       { return s.inner.Length() }

func (t *taggedInput) Splits(ctx *mr.JobContext) ([]mr.InputSplit, error) {
	var out []mr.InputSplit
	for i, src := range t.sources {
		splits, err := src.Splits(ctx)
		if err != nil {
			return nil, err
		}
		for _, s := range splits {
			out = append(out, &taggedSplit{inner: s, source: i})
		}
	}
	return out, nil
}

func (t *taggedInput) Open(split mr.InputSplit, ctx *mr.TaskContext) (mr.RecordReader, error) {
	ts, ok := split.(*taggedSplit)
	if !ok {
		return nil, fmt.Errorf("hive: taggedInput got %T split", split)
	}
	inner, err := t.sources[ts.source].Open(ts.inner, ctx)
	if err != nil {
		return nil, err
	}
	return &taggedReader{inner: inner, tag: records.Make(tagKeySchema, records.Int(int64(ts.source)))}, nil
}

var tagKeySchema = records.NewSchema(records.F("src", records.KindInt64))

type taggedReader struct {
	inner mr.RecordReader
	tag   records.Record
}

func (r *taggedReader) Next() (records.Record, records.Record, bool, error) {
	_, v, ok, err := r.inner.Next()
	return r.tag, v, ok, err
}

func (r *taggedReader) Close() error { return r.inner.Close() }

var joinKeySchema = records.NewSchema(records.F("k", records.KindInt64))

// runRepartitionStage executes one repartition join stage.
func (e *Engine) runRepartitionStage(ctx context.Context, sp *stagedPlan, st *joinStage, in stageInput) (*mr.JobResult, error) {
	bigInput, err := e.bigSideInput(in)
	if err != nil {
		return nil, err
	}
	dimDir, err := e.cat.DimDir(st.edge.Table)
	if err != nil {
		return nil, err
	}
	dimInput := &colstore.RowInput{Dir: dimDir, Schema: st.edge.Schema}

	// Compile what the mapper needs.
	var dimPred expr.RowPred
	if st.edge.Pred != nil {
		dimPred, err = expr.CompilePred(st.edge.Pred, st.edge.Schema)
		if err != nil {
			return nil, err
		}
	}
	var factPred expr.RowPred
	if st.applyFactPred && sp.factPred != nil {
		factPred, err = expr.CompilePred(sp.factPred, in.schema)
		if err != nil {
			return nil, err
		}
	}
	dimPK := st.edge.Schema.MustIndex(st.edge.PK)
	auxIdx := make([]int, len(st.edge.Aux))
	for i, a := range st.edge.Aux {
		auxIdx[i] = st.edge.Schema.MustIndex(a)
	}
	fkIdx := in.schema.MustIndex(st.edge.FK)
	carryIdx, err := projectionIndexes(in.schema, st.outSchema, st.auxSchema)
	if err != nil {
		return nil, err
	}

	job := &mr.Job{
		Name:  fmt.Sprintf("hive-rep-%s-%s", sp.name, st.edge.Table),
		Conf:  mr.NewJobConf(),
		Input: &taggedInput{sources: []mr.InputFormat{dimInput, bigInput}},
		Output: &colstore.RowOutput{
			Dir:    st.outDir,
			Schema: st.outSchema,
		},
		NewMapper: func() mr.Mapper {
			return mr.MapperFunc(func(k, v records.Record, out mr.Collector) error {
				if k.At(0).Int64() == tagDim {
					if dimPred != nil && !dimPred(v) {
						return nil
					}
					payload := make([]records.Value, 0, 1+len(auxIdx))
					payload = append(payload, records.Int(tagDim))
					for _, ix := range auxIdx {
						payload = append(payload, v.At(ix))
					}
					key := records.Make(joinKeySchema, v.At(dimPK))
					return out.Collect(key, records.Make(anonSchema(len(payload)), payload...))
				}
				if factPred != nil && !factPred(v) {
					return nil
				}
				payload := make([]records.Value, 0, 1+len(carryIdx))
				payload = append(payload, records.Int(tagFact))
				for _, ix := range carryIdx {
					payload = append(payload, v.At(ix))
				}
				key := records.Make(joinKeySchema, v.At(fkIdx))
				return out.Collect(key, records.Make(anonSchema(len(payload)), payload...))
			})
		},
		NewReducer: func() mr.Reducer {
			return mr.ReducerFunc(func(key records.Record, vals mr.Values, out mr.Collector) error {
				// Buffer the key's dimension aux rows and big-side rows,
				// then emit their cross product (pk keys make the dim side
				// a singleton in practice).
				var dimRows [][]records.Value
				var factRows [][]records.Value
				for v, ok := vals.Next(); ok; v, ok = vals.Next() {
					if v.At(0).Int64() == tagDim {
						dimRows = append(dimRows, v.Values()[1:])
					} else {
						factRows = append(factRows, v.Values()[1:])
					}
				}
				for _, f := range factRows {
					for _, d := range dimRows {
						row := make([]records.Value, 0, len(f)+len(d))
						row = append(row, f...)
						row = append(row, d...)
						if err := out.Collect(records.Record{}, records.Make(st.outSchema, row...)); err != nil {
							return err
						}
					}
				}
				return nil
			})
		},
		NumReduceTasks: e.opts.Reducers,
		KeySchema:      joinKeySchema,
	}
	res, err := e.mr.Submit(ctx, job)
	if err != nil {
		return nil, err
	}
	res.Counters.Add(CtrIntermediateRows, res.Counters.Get(mr.CtrReduceOutput))
	return res, nil
}

// bigSideInput opens the stage's big side: the pruned RCFile fact table for
// stage 1, a row-format intermediate afterwards.
func (e *Engine) bigSideInput(in stageInput) (mr.InputFormat, error) {
	if in.isFact {
		return &colstore.RCInput{Dir: in.dir, Columns: in.schema.Names(), Schema: e.cat.FactSchema}, nil
	}
	return &colstore.RowInput{Dir: in.dir, Schema: in.schema}, nil
}

// projectionIndexes maps the carried (non-aux) columns of outSchema to
// their positions in the input schema.
func projectionIndexes(in, out, aux *records.Schema) ([]int, error) {
	var idx []int
	for i := 0; i < out.Len(); i++ {
		name := out.Field(i).Name
		if aux.Has(name) {
			continue
		}
		j := in.Index(name)
		if j < 0 {
			return nil, fmt.Errorf("hive: carried column %s missing from input %v", name, in)
		}
		idx = append(idx, j)
	}
	return idx, nil
}

// anonSchema returns a positional schema of n int-typed placeholders; used
// only to size tagged payload records, whose values carry their own kinds.
func anonSchema(n int) *records.Schema {
	fields := make([]records.Field, n)
	for i := range fields {
		fields[i] = records.F(fmt.Sprintf("f%d", i), records.KindNull)
	}
	return records.NewSchema(fields...)
}
