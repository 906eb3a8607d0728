// Package core implements Clydesdale, the paper's contribution: a star-join
// query engine that runs each query as a single MapReduce job on the
// unmodified engine in package mr. The map side builds hash tables over the
// locally cached, predicate-filtered dimension tables — once per node,
// shared by all of the node's threads via a multi-threaded map task and
// across consecutive tasks via JVM reuse — and probes them with early-out
// while scanning the CIF fact table with block iteration; reducers perform
// the grouped aggregation and the driver runs the final single-process sort
// (§4, §5).
package core

import (
	"fmt"

	"clydesdale/internal/records"
)

// Catalog locates a star schema's tables in HDFS.
type Catalog struct {
	// FactName is the fact table's name, so a bound plan can refer to the
	// catalog's tables uniformly (the SQL binder requires it).
	FactName string
	// FactDir is the fact table's CIF directory.
	FactDir string
	// FactSchema is the fact table's schema.
	FactSchema *records.Schema
	// DimDirs maps dimension name → HDFS row-table directory (the master
	// copy, §4).
	DimDirs map[string]string
	// DimSchemas maps dimension name → schema.
	DimSchemas map[string]*records.Schema
}

// DimDir returns the HDFS directory of a dimension, or an error.
func (c *Catalog) DimDir(table string) (string, error) {
	d, ok := c.DimDirs[table]
	if !ok {
		return "", fmt.Errorf("core: catalog has no dimension %q", table)
	}
	return d, nil
}
