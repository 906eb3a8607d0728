package colstore

import (
	"fmt"
	"sync"

	"clydesdale/internal/mr"
	"clydesdale/internal/records"
)

// RowOutput is an mr.OutputFormat writing each task's (key, value) pairs as
// rows of a row-format table under Dir. Values are written; keys are
// ignored unless IncludeKey is set, in which case key fields precede value
// fields (both schemas must be provided by the caller via Schema).
//
// Hive's staged plans use this to round-trip intermediate join results
// through HDFS between MapReduce jobs (§6.3).
type RowOutput struct {
	Dir    string
	Schema *records.Schema
	// IncludeKey prepends the key's fields to each row.
	IncludeKey bool

	once sync.Once
	err  error
}

// OpenWriter implements mr.OutputFormat.
func (o *RowOutput) OpenWriter(ctx *mr.TaskContext, taskIndex int) (mr.RecordWriter, error) {
	return o.open(ctx, o.Dir, taskIndex)
}

// OpenStaged implements mr.StagedOutput.
func (o *RowOutput) OpenStaged(ctx *mr.TaskContext, taskIndex int) (mr.RecordWriter, func() error, func(), error) {
	stage, commit, abort := stageAttempt(ctx, o.Dir, taskIndex)
	w, err := o.open(ctx, stage, taskIndex)
	return w, commit, abort, err
}

// open starts task taskIndex's part file under dir: the table's own
// directory, or an attempt's staging directory inside it.
func (o *RowOutput) open(ctx *mr.TaskContext, dir string, taskIndex int) (mr.RecordWriter, error) {
	o.once.Do(func() {
		if o.Schema == nil {
			o.err = fmt.Errorf("colstore: RowOutput for %s has no schema", o.Dir)
			return
		}
		if !ctx.FS.Exists(o.Dir + "/" + SchemaFileName) {
			o.err = WriteSchema(ctx.FS, o.Dir, o.Schema)
		}
	})
	if o.err != nil {
		return nil, o.err
	}
	path := fmt.Sprintf("%s/part-%05d", dir, taskIndex)
	// Task re-execution may leave a stale partial file; replace it.
	ctx.FS.Delete(path)
	w, err := NewRowWriter(ctx.FS, path, ctx.Node().ID(), o.Schema, 0)
	if err != nil {
		return nil, err
	}
	return &rowOutputWriter{w: w, includeKey: o.IncludeKey}, nil
}

// stageAttempt names a task attempt's private staging directory inside dir
// and returns the commit that moves the files written there into place —
// replacing any earlier output of the task — and the abort that deletes
// them. The directory's name starts with '_', which every reader of dir
// skips.
func stageAttempt(ctx *mr.TaskContext, dir string, taskIndex int) (stage string, commit func() error, abort func()) {
	stage = fmt.Sprintf("%s/_attempt-%05d-%d", dir, taskIndex, ctx.Attempt)
	commit = func() error {
		for _, p := range ctx.FS.List(stage + "/") {
			dst := dir + p[len(stage):]
			ctx.FS.Delete(dst)
			if err := ctx.FS.Rename(p, dst); err != nil {
				return err
			}
		}
		return nil
	}
	abort = func() { ctx.FS.DeletePrefix(stage + "/") }
	return stage, commit, abort
}

type rowOutputWriter struct {
	w          *RowWriter
	includeKey bool
}

func (w *rowOutputWriter) Write(k, v records.Record) error {
	row := v
	if w.includeKey {
		row = k.Concat(v)
	}
	return w.w.Append(row)
}

func (w *rowOutputWriter) Close() error { return w.w.Close() }
