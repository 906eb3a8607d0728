package colstore

import (
	"fmt"
	"sort"
	"sync"

	"clydesdale/internal/hdfs"
	"clydesdale/internal/mr"
	"clydesdale/internal/records"
)

// Bucketed row table layout:
//
//	<dir>/_schema
//	<dir>/bucket-00000/part-00007
//	<dir>/bucket-00001/part-00007
//	...
//
// Each bucket directory holds the rows whose KeyCol hashes to that bucket
// under mr.BucketOf — the co-partitioned output contract. A downstream
// map-side join schedules one map task per bucket and pairs it with the
// same bucket of a side table laid out with the same function, so the join
// needs no shuffle.

// BucketRowOutput is an mr.OutputFormat writing each task's values as rows
// of a bucketed row table: row r goes to bucket mr.BucketOf(r[KeyCol],
// Buckets). Keys are ignored (the bucketing column travels in the value).
type BucketRowOutput struct {
	Dir     string
	Schema  *records.Schema
	KeyCol  string
	Buckets int

	once sync.Once
	err  error
}

// OpenWriter implements mr.OutputFormat.
func (o *BucketRowOutput) OpenWriter(ctx *mr.TaskContext, taskIndex int) (mr.RecordWriter, error) {
	return o.open(ctx, o.Dir, taskIndex)
}

// OpenStaged implements mr.StagedOutput.
func (o *BucketRowOutput) OpenStaged(ctx *mr.TaskContext, taskIndex int) (mr.RecordWriter, func() error, func(), error) {
	stage, commit, abort := stageAttempt(ctx, o.Dir, taskIndex)
	w, err := o.open(ctx, stage, taskIndex)
	return w, commit, abort, err
}

// open starts task taskIndex's writer, whose bucket files go under dir:
// the table's own directory, or an attempt's staging directory inside it.
func (o *BucketRowOutput) open(ctx *mr.TaskContext, dir string, taskIndex int) (mr.RecordWriter, error) {
	o.once.Do(func() {
		if o.Schema == nil {
			o.err = fmt.Errorf("colstore: BucketRowOutput for %s has no schema", o.Dir)
			return
		}
		if o.Buckets < 1 {
			o.err = fmt.Errorf("colstore: BucketRowOutput for %s has %d buckets", o.Dir, o.Buckets)
			return
		}
		if !o.Schema.Has(o.KeyCol) {
			o.err = fmt.Errorf("colstore: bucket key %s is not a column of %s", o.KeyCol, o.Dir)
			return
		}
		if !ctx.FS.Exists(o.Dir + "/" + SchemaFileName) {
			o.err = WriteSchema(ctx.FS, o.Dir, o.Schema)
		}
	})
	if o.err != nil {
		return nil, o.err
	}
	return &bucketRowWriter{
		fs:        ctx.FS,
		node:      ctx.Node().ID(),
		dir:       dir,
		schema:    o.Schema,
		keyIdx:    o.Schema.MustIndex(o.KeyCol),
		buckets:   o.Buckets,
		taskIndex: taskIndex,
		writers:   map[int]*RowWriter{},
	}, nil
}

type bucketRowWriter struct {
	fs        *hdfs.FileSystem
	node      string
	dir       string
	schema    *records.Schema
	keyIdx    int
	buckets   int
	taskIndex int
	writers   map[int]*RowWriter
}

func (w *bucketRowWriter) Write(_, v records.Record) error {
	b := mr.BucketOf(v.At(w.keyIdx), w.buckets)
	rw, ok := w.writers[b]
	if !ok {
		path := fmt.Sprintf("%s/bucket-%05d/part-%05d", w.dir, b, w.taskIndex)
		// Task re-execution may leave a stale partial file; replace it.
		w.fs.Delete(path)
		var err error
		rw, err = NewRowWriter(w.fs, path, w.node, w.schema, 0)
		if err != nil {
			return err
		}
		w.writers[b] = rw
	}
	return rw.Append(v)
}

func (w *bucketRowWriter) Close() error {
	order := make([]int, 0, len(w.writers))
	for b := range w.writers {
		order = append(order, b)
	}
	sort.Ints(order)
	for _, b := range order {
		if err := w.writers[b].Close(); err != nil {
			return err
		}
	}
	return nil
}

// BucketRowInput is an mr.InputFormat over a bucketed row table: exactly
// one split per non-empty bucket, so a map-side join gets all of a join
// key's rows in a single task. The reader surfaces the bucket number as
// the record key (schema BucketKeySchema) so mappers can pair the probe
// stream with the matching side-table bucket.
type BucketRowInput struct {
	Dir    string
	Schema *records.Schema // nil → read from _schema
}

// BucketKeySchema is the key schema of BucketRowInput records: the bucket
// ordinal.
var BucketKeySchema = records.NewSchema(records.F("bucket", records.KindInt64))

// BucketSplit is all the row-file fragments of one bucket.
type BucketSplit struct {
	Bucket int
	Parts  []*RowSplit
	bytes  int64
}

// Locations implements mr.InputSplit: the hosts of the first fragment.
func (s *BucketSplit) Locations() []string {
	if len(s.Parts) > 0 {
		return s.Parts[0].Hosts
	}
	return nil
}

// Length implements mr.InputSplit.
func (s *BucketSplit) Length() int64 { return s.bytes }

// Splits implements mr.InputFormat.
func (in *BucketRowInput) Splits(ctx *mr.JobContext) ([]mr.InputSplit, error) {
	if err := in.resolveSchema(ctx.FS); err != nil {
		return nil, err
	}
	dirs := map[int]*BucketSplit{}
	var order []int
	for _, p := range ctx.FS.List(in.Dir + "/bucket-") {
		rest := p[len(in.Dir)+1:]
		var bucket int
		var tail string
		if n, _ := fmt.Sscanf(rest, "bucket-%05d/%s", &bucket, &tail); n != 2 {
			continue
		}
		fileSplits, err := splitRowFile(ctx.FS, p)
		if err != nil {
			return nil, err
		}
		s, ok := dirs[bucket]
		if !ok {
			s = &BucketSplit{Bucket: bucket}
			dirs[bucket] = s
			order = append(order, bucket)
		}
		for _, fs := range fileSplits {
			rs := fs.(*RowSplit)
			s.Parts = append(s.Parts, rs)
			s.bytes += rs.Length()
		}
	}
	sort.Ints(order)
	splits := make([]mr.InputSplit, 0, len(order))
	for _, b := range order {
		splits = append(splits, dirs[b])
	}
	return splits, nil
}

func (in *BucketRowInput) resolveSchema(fs *hdfs.FileSystem) error {
	if in.Schema != nil {
		return nil
	}
	s, err := ReadSchema(fs, in.Dir)
	if err != nil {
		return err
	}
	in.Schema = s
	return nil
}

// Open implements mr.InputFormat.
func (in *BucketRowInput) Open(split mr.InputSplit, ctx *mr.TaskContext) (mr.RecordReader, error) {
	s, ok := split.(*BucketSplit)
	if !ok {
		return nil, fmt.Errorf("colstore: BucketRowInput got %T split", split)
	}
	if err := in.resolveSchema(ctx.FS); err != nil {
		return nil, err
	}
	return &bucketReader{in: in, ctx: ctx, split: s, key: records.Make(BucketKeySchema, records.Int(int64(s.Bucket)))}, nil
}

// bucketReader concatenates one bucket's row-file fragments sequentially,
// stamping every record with the bucket key.
type bucketReader struct {
	in    *BucketRowInput
	ctx   *mr.TaskContext
	split *BucketSplit
	key   records.Record
	pi    int
	cur   mr.RecordReader
}

func (br *bucketReader) Next() (records.Record, records.Record, bool, error) {
	for {
		if br.cur == nil {
			if br.pi >= len(br.split.Parts) {
				return records.Record{}, records.Record{}, false, nil
			}
			part := br.split.Parts[br.pi]
			br.pi++
			r, err := br.ctx.FS.Open(part.Path, br.ctx.Node().ID())
			if err != nil {
				return records.Record{}, records.Record{}, false, err
			}
			r.SetTrace(br.ctx.TraceContext())
			br.cur = &rowReader{r: r, schema: br.in.Schema, groups: part.Groups}
		}
		_, v, ok, err := br.cur.Next()
		if err != nil {
			return records.Record{}, records.Record{}, false, err
		}
		if ok {
			return br.key, v, true, nil
		}
		if err := br.cur.(*rowReader).Close(); err != nil {
			return records.Record{}, records.Record{}, false, err
		}
		br.cur = nil
	}
}

func (br *bucketReader) Close() error {
	if br.cur != nil {
		return br.cur.(*rowReader).Close()
	}
	return nil
}

// TableRowCount sums the zone-map row counts of a CIF table's partitions —
// the planner's fact-cardinality input. Partitions without stats count
// zero.
func TableRowCount(fs *hdfs.FileSystem, dir string) (int64, error) {
	parts, err := ListPartitions(fs, dir)
	if err != nil {
		return 0, err
	}
	var rows int64
	for _, p := range parts {
		st, err := ReadPartitionStats(fs, p)
		if err != nil {
			return 0, err
		}
		if st != nil {
			rows += st.Rows
		}
	}
	return rows, nil
}
