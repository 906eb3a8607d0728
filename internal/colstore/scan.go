package colstore

import (
	"io"

	"clydesdale/internal/hdfs"
	"clydesdale/internal/records"
)

// ScanRowTable reads every row of a row-format table directly (outside any
// MapReduce job), charging I/O to clientNode. Used for loading dimension
// tables into node-local caches and for driver-side reads.
func ScanRowTable(fs *hdfs.FileSystem, dir, clientNode string, fn func(records.Record) error) error {
	schema, err := ReadSchema(fs, dir)
	if err != nil {
		return err
	}
	return scanRowFiles(fs, listDataFiles(fs, dir), schema, clientNode, fn)
}

// scanRowFiles reads every row of the given row files in order.
func scanRowFiles(fs *hdfs.FileSystem, files []string, schema *records.Schema, clientNode string, fn func(records.Record) error) error {
	for _, path := range files {
		r, err := fs.Open(path, clientNode)
		if err != nil {
			return err
		}
		groups, err := readFooter(r, rowMagic)
		if err != nil {
			r.Close()
			return err
		}
		// One buffer reused across groups, regrown only when a group is
		// larger than any seen before. Safe because DecodeRecord copies
		// string bytes out of the buffer.
		var buf []byte
		for _, g := range groups {
			if int64(cap(buf)) < g.length {
				buf = make([]byte, g.length)
			}
			buf = buf[:g.length]
			if _, err := r.ReadAt(buf, g.offset); err != nil && err != io.EOF {
				r.Close()
				return err
			}
			pos := 0
			for pos < len(buf) {
				rec, n, err := records.DecodeRecord(buf[pos:], schema)
				if err != nil {
					r.Close()
					return err
				}
				pos += n
				if err := fn(rec); err != nil {
					r.Close()
					return err
				}
			}
		}
		if err := r.Close(); err != nil {
			return err
		}
	}
	return nil
}
