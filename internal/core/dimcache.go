package core

import (
	"fmt"

	"clydesdale/internal/cluster"
	"clydesdale/internal/colstore"
	"clydesdale/internal/hdfs"
)

// The dimension cache (§4, Figure 2): a master copy of every dimension
// table lives in HDFS; each node keeps a local copy on its own disk. New
// nodes, or nodes that lost their copy to a disk failure, re-copy from
// HDFS. Unlike Hive's mapjoin broadcast, this happens once per cluster —
// not once per query — so queries only pay a local read to build their
// hash tables.

func dimCacheKey(dir string) string { return "clydesdale/dimcache" + dir }

// EnsureDimCached copies the dimension at dir to every live node that does
// not already hold its current generation, storing it column-major
// (colstore.CopyRowTable). It returns the number of nodes that received a
// fresh copy.
func EnsureDimCached(fs *hdfs.FileSystem, dir string) (int, error) {
	gen, err := colstore.RowTableGeneration(fs, dir)
	if err != nil {
		return 0, err
	}
	return ensureDimGen(fs, dir, gen)
}

// ensureDimGen copies the dimension at dir to every live node whose copy
// is missing or not of generation gen.
func ensureDimGen(fs *hdfs.FileSystem, dir string, gen uint64) (int, error) {
	var stale []*cluster.Node
	for _, n := range fs.Cluster().Alive() {
		// A copy left behind by an append that skipped DropDimCached
		// carries an older generation and is replaced.
		if data, ok := n.GetLocal(dimCacheKey(dir)); ok {
			if c, err := colstore.OpenDimCopy(data); err == nil && c.Generation() == gen {
				continue
			}
		}
		stale = append(stale, n)
	}
	if len(stale) == 0 {
		return 0, nil
	}
	if err := ensureDimCachedOn(fs, dir, stale...); err != nil {
		return 0, err
	}
	return len(stale), nil
}

// DropDimCached removes every node's local copy of the dimension at dir —
// dead nodes included, so a later revival re-copies post-roll-in data
// instead of serving its stale snapshot. Call after appending rows to the
// dimension's master copy; the next EnsureDimCached re-copies from HDFS.
// Returns the number of copies dropped.
func DropDimCached(c *cluster.Cluster, dir string) int {
	key := dimCacheKey(dir)
	n := 0
	for _, node := range c.Nodes() {
		if node.HasLocal(key) {
			node.DropLocal(key)
			n++
		}
	}
	return n
}

// EnsureCatalogCached caches every dimension of the catalog on every live
// node.
func EnsureCatalogCached(fs *hdfs.FileSystem, cat *Catalog) (int, error) {
	total := 0
	for _, dir := range cat.DimDirs {
		n, err := EnsureDimCached(fs, dir)
		if err != nil {
			return total, err
		}
		total += n
	}
	return total, nil
}

// localDimBytes fetches the node-local copy of a dimension, re-copying from
// HDFS if the node lost it (§4: "nodes that have lost their local copy ...
// may copy the dimension data from HDFS"). The caller charges the read: only
// the column chunks it decodes come off the disk.
func localDimBytes(fs *hdfs.FileSystem, node *cluster.Node, dir string) ([]byte, error) {
	if data, ok := node.GetLocal(dimCacheKey(dir)); ok {
		return data, nil
	}
	if err := ensureDimCachedOn(fs, dir, node); err != nil {
		return nil, err
	}
	data, ok := node.GetLocal(dimCacheKey(dir))
	if !ok {
		return nil, fmt.Errorf("core: dimension %s not cachable on %s", dir, node.ID())
	}
	return data, nil
}

// ensureDimCachedOn copies the dimension's current master to the nodes'
// local disks: each node is charged its own HDFS read and local write,
// while the rows are encoded once for all of them.
func ensureDimCachedOn(fs *hdfs.FileSystem, dir string, nodes ...*cluster.Node) error {
	ids := make([]string, len(nodes))
	for i, n := range nodes {
		ids[i] = n.ID()
	}
	buf, err := colstore.CopyRowTable(fs, dir, ids...)
	if err != nil {
		return fmt.Errorf("core: caching %s: %w", dir, err)
	}
	for _, n := range nodes {
		if err := n.ChargeDiskWrite(int64(len(buf)), false); err != nil {
			return err
		}
		if err := n.PutLocal(dimCacheKey(dir), buf); err != nil {
			return err
		}
	}
	return nil
}
