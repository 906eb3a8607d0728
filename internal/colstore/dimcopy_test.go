package colstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"

	"clydesdale/internal/expr"
	"clydesdale/internal/records"
)

var dimTestSchema = records.NewSchema(
	records.F("pk", records.KindInt64),      // delta (ascending keys)
	records.F("region", records.KindString), // dict
	records.F("size", records.KindInt64),    // dict-i64
	records.F("name", records.KindString),   // plain: every value distinct
	records.F("price", records.KindFloat64), // plain
	records.F("odd", records.KindBool),      // plain
	records.F("note", records.KindString),   // plain boxed: holds nulls
)

func dimTestRows(n int) []records.Record {
	regions := []string{"ASIA", "EUROPE", "AMERICA", "AFRICA", "MIDDLE EAST"}
	rows := make([]records.Record, n)
	for i := range rows {
		note := records.Str(fmt.Sprintf("n%d", i%3))
		if i%7 == 0 {
			note = records.Null
		}
		rows[i] = records.Make(dimTestSchema,
			records.Int(int64(i*3+1)),
			records.Str(regions[i%len(regions)]),
			records.Int(int64(i%11)),
			records.Str(fmt.Sprintf("name-%06d-%s", i, strings.Repeat("x", i%5))),
			records.Float(float64(i)/4),
			records.Bool(i%2 == 1),
			note,
		)
	}
	return rows
}

func encodeDimTestCopy(t testing.TB, rows []records.Record) []byte {
	t.Helper()
	w := NewDimCopyWriter(dimTestSchema, 77)
	for _, r := range rows {
		if err := w.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	return w.Bytes()
}

// TestDimCopySelectMatchesRows holds Select to a row-at-a-time evaluation
// of the same predicate over the original rows, for predicates that take
// the code-bitmap path, the residual path, and both.
func TestDimCopySelectMatchesRows(t *testing.T) {
	rows := dimTestRows(600)
	data := encodeDimTestCopy(t, rows)
	c, err := OpenDimCopy(data)
	if err != nil {
		t.Fatal(err)
	}
	if c.Generation() != 77 || c.rows != len(rows) || !c.schema.Equal(dimTestSchema) {
		t.Fatalf("header: gen %d rows %d schema %s", c.Generation(), c.rows, c.schema)
	}
	encs := map[string]Encoding{}
	for i, ch := range c.cols {
		encs[c.schema.Field(i).Name] = ch.enc
	}
	want := map[string]Encoding{"pk": EncDelta, "region": EncDict, "size": EncDictI64, "name": EncPlain, "note": EncPlain}
	for col, enc := range want {
		if encs[col] != enc {
			t.Errorf("column %s encoded %s, want %s", col, encs[col], enc)
		}
	}

	preds := []expr.Pred{
		nil,
		expr.Eq(expr.Col("region"), expr.ConstStr("ASIA")),
		expr.And(expr.In(expr.Col("region"), records.Str("ASIA"), records.Str("AFRICA")), expr.Lt(expr.Col("size"), expr.ConstInt(4))),
		expr.Between(expr.Col("pk"), records.Int(100), records.Int(900)),
		expr.Or(expr.Eq(expr.Col("region"), expr.ConstStr("EUROPE")), expr.Eq(expr.Col("odd"), expr.Col("odd"))),
		expr.And(expr.Eq(expr.Col("region"), expr.ConstStr("ASIA")), expr.Gt(expr.Col("price"), expr.Col("size"))),
		expr.Eq(expr.Col("note"), expr.ConstStr("n1")),
		expr.Not(expr.Eq(expr.Col("region"), expr.ConstStr("NOWHERE"))),
	}
	aux := []string{"region", "name", "note", "size"}
	for _, p := range preds {
		got, err := c.Select("pk", p, aux)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		var rp expr.RowPred
		if p != nil {
			if rp, err = expr.CompilePred(p, dimTestSchema); err != nil {
				t.Fatal(err)
			}
		}
		var keys []int64
		var vals []records.Value
		for _, r := range rows {
			if rp != nil && !rp(r) {
				continue
			}
			keys = append(keys, r.At(0).Int64())
			for _, a := range aux {
				vals = append(vals, r.Get(a))
			}
		}
		if got.Total != int64(len(rows)) || len(got.Keys) != len(keys) || got.Width != len(aux) {
			t.Fatalf("%v: total %d, %d keys, width %d; want %d keys", p, got.Total, len(got.Keys), got.Width, len(keys))
		}
		for i, k := range keys {
			if got.Keys[i] != k {
				t.Fatalf("%v: key %d = %d, want %d", p, i, got.Keys[i], k)
			}
		}
		for i, v := range vals {
			if got.Aux[i].Kind() != v.Kind() || !got.Aux[i].Equal(v) {
				t.Fatalf("%v: aux %d = %v, want %v", p, i, got.Aux[i], v)
			}
		}
		if got.BytesRead <= int64(c.hdrLen) || got.BytesRead >= int64(len(data)) {
			t.Fatalf("%v: read %d of %d bytes", p, got.BytesRead, len(data))
		}
	}
}

// dimTestChunk is one raw column of a hand-assembled copy.
type dimTestChunk struct {
	name    string
	kind    records.Kind
	enc     Encoding
	payload []byte
}

// assembleDimCopy writes a copy around raw chunks with valid checksums, so
// a test can reach the structural checks behind them.
func assembleDimCopy(rows uint64, chunks []dimTestChunk) []byte {
	hdr := append([]byte(nil), dimCopyMagic[:]...)
	hdr = binary.LittleEndian.AppendUint64(hdr, 1)
	hdr = binary.AppendUvarint(hdr, rows)
	hdr = binary.AppendUvarint(hdr, uint64(len(chunks)))
	for _, c := range chunks {
		hdr = binary.AppendUvarint(hdr, uint64(len(c.name)))
		hdr = append(hdr, c.name...)
		hdr = append(hdr, byte(c.kind), byte(c.enc))
		hdr = binary.AppendUvarint(hdr, uint64(len(c.payload)))
		hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(c.payload))
	}
	hdr = binary.LittleEndian.AppendUint32(hdr, crc32.ChecksumIEEE(hdr))
	for _, c := range chunks {
		hdr = append(hdr, c.payload...)
	}
	return hdr
}

// repairDimCopyCRCs rewrites every checksum a copy's header declares, as
// far as the header parses, so fuzzed bytes get past the checksums to the
// structure behind them.
func repairDimCopyCRCs(data []byte) []byte {
	data = append([]byte(nil), data...)
	if len(data) < 12 {
		return data
	}
	pos := 12
	next := func() (uint64, bool) {
		v, n := binary.Uvarint(data[pos:])
		if n <= 0 {
			return 0, false
		}
		pos += n
		return v, true
	}
	if _, ok := next(); !ok {
		return data
	}
	ncols, ok := next()
	if !ok {
		return data
	}
	type crcAt struct{ pos, len int }
	var crcs []crcAt
	for i := uint64(0); i < ncols; i++ {
		l, ok := next()
		if !ok || l+2 > uint64(len(data)-pos) {
			return data
		}
		pos += int(l) + 2
		n, ok := next()
		if !ok || pos > len(data)-4 || n > uint64(len(data)) {
			return data
		}
		crcs = append(crcs, crcAt{pos, int(n)})
		pos += 4
	}
	if pos > len(data)-4 {
		return data
	}
	off := pos + 4
	for _, c := range crcs {
		if off+c.len > len(data) {
			break
		}
		binary.LittleEndian.PutUint32(data[c.pos:], crc32.ChecksumIEEE(data[off:off+c.len]))
		off += c.len
	}
	binary.LittleEndian.PutUint32(data[pos:], crc32.ChecksumIEEE(data[:pos]))
	return data
}

func uvarints(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// malformedDimCopies are copies with valid checksums and bad structure.
func malformedDimCopies() map[string][]byte {
	pk := dimTestChunk{"pk", records.KindInt64, EncDelta, binary.AppendVarint(binary.AppendVarint(nil, 1), 1)}
	dict := func(codes ...uint64) dimTestChunk {
		// Two entries, "a" and "b", then the codes.
		p := uvarints(2, 1)
		p = append(p, 'a')
		p = append(p, uvarints(1)...)
		p = append(p, 'b')
		return dimTestChunk{"s", records.KindString, EncDict, append(p, uvarints(codes...)...)}
	}
	truncated := dict(0, 1)
	truncated.payload = truncated.payload[:len(truncated.payload)-1]
	hugeDict := dimTestChunk{"s", records.KindString, EncDict, uvarints(1 << 40)}
	return map[string][]byte{
		"truncated chunk":         assembleDimCopy(2, []dimTestChunk{pk, truncated}),
		"code out of range":       assembleDimCopy(2, []dimTestChunk{pk, dict(0, 2)}),
		"rows disagree (short)":   assembleDimCopy(3, []dimTestChunk{pk, dict(0, 1, 1)}),
		"rows disagree (long)":    assembleDimCopy(2, []dimTestChunk{pk, dict(0, 1, 1)}),
		"dictionary overruns":     assembleDimCopy(2, []dimTestChunk{pk, hugeDict}),
		"dict on int column":      assembleDimCopy(2, []dimTestChunk{pk, {"s", records.KindInt64, EncDict, dict(0, 1).payload}}),
		"unknown encoding":        assembleDimCopy(2, []dimTestChunk{pk, {"s", records.KindString, Encoding(9), dict(0, 1).payload}}),
		"null key":                assembleDimCopy(1, []dimTestChunk{{"pk", records.KindInt64, EncPlain, []byte{byte(records.KindNull)}}}),
		"string key":              assembleDimCopy(1, []dimTestChunk{{"pk", records.KindString, EncPlain, records.AppendValue(nil, records.Str("k"))}}),
		"plain value cut short":   assembleDimCopy(1, []dimTestChunk{{"pk", records.KindInt64, EncPlain, []byte{byte(records.KindString), 5, 'a'}}}),
		"duplicate column":        assembleDimCopy(2, []dimTestChunk{pk, pk}),
		"trailing bytes in copy":  append(assembleDimCopy(2, []dimTestChunk{pk}), 0),
		"row count beyond copy":   assembleDimCopy(1<<40, []dimTestChunk{pk}),
		"delta chunk cut short":   assembleDimCopy(3, []dimTestChunk{pk}),
		"header checksum damaged": func() []byte { b := assembleDimCopy(2, []dimTestChunk{pk}); b[12] ^= 1; return b }(),
	}
}

// TestDimCopyRejectsMalformed: a copy whose checksums hold but whose
// structure does not must fail to open or to select — an error, never a
// panic and never rows.
func TestDimCopyRejectsMalformed(t *testing.T) {
	for name, data := range malformedDimCopies() {
		c, err := OpenDimCopy(data)
		if err == nil {
			var rows *DimRows
			rows, err = c.Select("pk", expr.Eq(expr.Col("s"), expr.ConstStr("a")), []string{"s"})
			if err == nil && c.schema.Has("s") {
				t.Errorf("%s: selected %d rows, want an error", name, len(rows.Keys))
				continue
			}
			if err == nil {
				_, err = c.Select("pk", nil, nil)
			}
		}
		if err == nil {
			t.Errorf("%s: no error", name)
		}
	}
}

// FuzzDimCopy feeds the copy decoder arbitrary bytes, with the checksums
// optionally repaired so the structural checks behind them are reached.
// Opening and selecting must return rows or an error, never panic; rows
// returned must be internally consistent.
func FuzzDimCopy(f *testing.F) {
	valid := encodeDimTestCopy(f, dimTestRows(40))
	f.Add(valid, false)
	f.Add(valid, true)
	f.Add(valid[:len(valid)/2], true)
	for _, data := range malformedDimCopies() {
		f.Add(data, false)
	}
	f.Fuzz(func(t *testing.T, data []byte, repair bool) {
		if repair {
			data = repairDimCopyCRCs(data)
		}
		c, err := OpenDimCopy(data)
		if err != nil {
			return
		}
		s := c.schema
		for i := 0; i < s.Len(); i++ {
			col := s.Field(i)
			var pred expr.Pred
			switch col.Kind {
			case records.KindString:
				pred = expr.Eq(expr.Col(col.Name), expr.ConstStr("ASIA"))
			case records.KindInt64:
				pred = expr.Lt(expr.Col(col.Name), expr.ConstInt(5))
			}
			aux := s.Names()
			for _, p := range []expr.Pred{nil, pred} {
				rows, err := c.Select(s.Field(0).Name, p, aux)
				if err != nil {
					continue
				}
				if rows.Total != int64(c.rows) || len(rows.Keys) > c.rows ||
					len(rows.Aux) != len(rows.Keys)*len(aux) || rows.BytesRead > int64(len(data)) {
					t.Fatalf("inconsistent selection: total %d, %d keys, %d aux, read %d of %d",
						rows.Total, len(rows.Keys), len(rows.Aux), rows.BytesRead, len(data))
				}
			}
		}
	})
}
