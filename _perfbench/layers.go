package main

import (
	"time"

	"segidx"
)

// engineCounts is a snapshot of the counters the facade exposes.
type engineCounts struct {
	st    segidx.Stats
	pool  segidx.PoolStats
	accel segidx.AccelStats // summed over shards
}

func engineSnap(idx *segidx.Index) engineCounts {
	c := engineCounts{st: idx.Stats(), pool: poolStats(idx)}
	for _, a := range idx.AccelStats() {
		c.accel.Probes += a.Probes
		c.accel.Slots += a.Slots
		c.accel.Live += a.Live
	}
	return c
}

// poolStats sums the pool counters over the shards: a forest's PoolStats
// leaves out the copy-on-write fields (clones, collected and retained
// versions), which ShardPoolStats reports.
func poolStats(idx *segidx.Index) segidx.PoolStats {
	var p segidx.PoolStats
	for _, s := range idx.ShardPoolStats() {
		p.Gets += s.Gets
		p.Misses += s.Misses
		p.Evictions += s.Evictions
		p.Clones += s.Clones
		p.Collected += s.Collected
		p.Retained += s.Retained
	}
	return p
}

// timedEndToEnd fills the metrics read from a window's timed operations.
func timedEndToEnd(m map[string]float64, rec *recorder, window time.Duration) {
	m["read_ops_s"] = rate(rec.ends[0], window)
	m["write_ops_s"] = rate(rec.ends[1], window)
	m["search_p50_us"] = p50(rec.lat[kSearch])
	m["stab_p50_us"] = p50(rec.lat[kStab])
	m["slice_p50_us"] = p50(rec.lat[kSlice])
	m["snapshot_p50_us"] = p50(rec.lat[kSnap])
	m["insert_p50_us"] = p50(rec.lat[kInsert])
	m["delete_p50_us"] = p50(rec.lat[kDelete])
	m["read_p99_us"] = quantile(rec.pooled(kSearch, kStab, kSlice, kSnap, kOther), 0.99)
	m["write_p99_us"] = quantile(rec.pooled(kInsert, kDelete), 0.99)
}

// readSide fills the per-layer metrics of the read path from counter
// deltas over a window with the given numbers of reads and engine reads
// (reads that reached the index: every read, less result-cache hits).
func readSide(m map[string]float64, d0, d1 engineCounts, reads, engineReads, ops int) {
	searches := float64(d1.st.Searches - d0.st.Searches)
	m["forest.shards_per_read"] = ratio(searches, float64(engineReads))
	m["core.search_nodes_per_read"] = ratio(float64(d1.st.SearchNodeAccesses-d0.st.SearchNodeAccesses), searches)
	m["buffer.gets_per_read"] = ratio(float64(d1.pool.Gets-d0.pool.Gets), float64(reads))
	m["buffer.misses_per_read"] = ratio(float64(d1.pool.Misses-d0.pool.Misses), float64(reads))
	m["buffer.evictions_per_1k_ops"] = ratio(1000*float64(d1.pool.Evictions-d0.pool.Evictions), float64(ops))
	m["accel.probes_per_1k_reads"] = ratio(1000*float64(d1.accel.Probes-d0.accel.Probes), float64(reads))
	m["accel.slots_per_live"] = ratio(float64(d1.accel.Slots), float64(d1.accel.Live))
}

// writeSide fills the per-layer metrics of the write path from counter
// deltas over a stretch of the given numbers of writes.
func writeSide(m map[string]float64, d0, d1 engineCounts, io0, io1 ioCounts, writes int) {
	ins := float64(d1.st.Inserts - d0.st.Inserts)
	splits := float64(d1.st.LeafSplits + d1.st.NonLeafSplits - d0.st.LeafSplits - d0.st.NonLeafSplits)
	w := float64(writes)
	m["core.insert_nodes_per_insert"] = ratio(float64(d1.st.InsertNodeAccesses-d0.st.InsertNodeAccesses), ins)
	m["core.splits_per_1k_inserts"] = ratio(1000*splits, ins)
	m["core.cuts_per_1k_inserts"] = ratio(1000*float64(d1.st.Cuts-d0.st.Cuts), ins)
	m["core.reinserts_per_1k_writes"] = ratio(1000*float64(d1.st.Reinserts-d0.st.Reinserts), w)
	m["skeleton.coalesces"] = float64(d1.st.Coalesces - d0.st.Coalesces)
	m["buffer.clones_per_write"] = ratio(float64(d1.pool.Clones-d0.pool.Clones), w)
	m["buffer.collected_per_write"] = ratio(float64(d1.pool.Collected-d0.pool.Collected), w)
	io := io1.sub(io0)
	m["store.fsyncs_per_1k_writes"] = ratio(1000*float64(io.syncs), w)
	m["store.wal_bytes_per_write"] = ratio(float64(io.walBytes), w)
	m["store.page_bytes_per_write"] = ratio(float64(io.pageBytes), w)
}

// nodesPerSearch runs the paper's QAR sweep (500 rectangles per aspect
// ratio) once through SearchFunc from one goroutine and returns node
// accesses per query. SearchFunc always walks the tree, never a sidecar,
// so the count is exact for a seed.
func nodesPerSearch(idx *segidx.Index, r *rng, xhi float64) (float64, error) {
	before := idx.Stats().SearchNodeAccesses
	n := 0
	for _, qar := range qars {
		for i := 0; i < 500; i++ {
			if err := idx.SearchFunc(qarQuery(r, qar, domLo, xhi), func(segidx.Entry) bool { return true }); err != nil {
				return 0, err
			}
			n++
		}
	}
	return float64(idx.Stats().SearchNodeAccesses-before) / float64(n), nil
}

// worker times one goroutine's calls into the program.
type worker struct {
	rec  recorder
	tr   *tracer
	open time.Time // when the timed window opened
}

// do times fn as an operation of kind k and, when tracing, records it as a
// span named after the layer it calls into.
func (w *worker) do(k kind, name string, fn func() error) error {
	start := time.Now()
	err := fn()
	end := time.Now()
	w.rec.add(k, start, end, w.open)
	w.tr.add(name, 0, start, end)
	if err != nil {
		w.rec.fail++
	}
	return err
}
