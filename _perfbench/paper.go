package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"segidx"
)

// paper_sweep: the paper's own experiment. A Skeleton SR-Tree over an
// in-memory store with an unbounded pool is built by per-record Insert of
// I3 intervals, then queried from one goroutine with the paper's QAR sweep
// and point stabs. No HTTP, WAL, cache, sidecar or forest: it isolates the
// single-tree path of core, buffer and skeleton.
const paperN = 40000

// One round of the timed window: the QAR sweep at 10 rectangles per aspect
// ratio, as many point stabs, two full-height slices, point stabs against
// a snapshot pinned at the start of the round, and the delete and
// re-insert of paperChurn records, so the record set is the same after
// every round. Writes are 1 in 15 operations. The QAR sweep is the
// paper's (Section 5); the counts per round, the slices, the snapshot
// stabs and the writes are assumptions, the last two added so that every
// run reports every end-to-end metric (README.md).
const (
	paperSearchesPerQAR = 10
	paperStabs          = 130
	paperSlices         = 2
	paperSnapStabs      = 13
	paperChurn          = 10
)

func paperSweep(cfg *config) (*result, error) {
	w := &worker{}
	if cfg.trace {
		w.tr = newTracer(cfg.started, new(atomic.Int64))
	}

	// Set-up: setupReps builds, each of its own dataset drawn from the
	// seed. Per-build figures are averaged over them; the last build is
	// the one the window runs on.
	var (
		idx                   *segidx.Index
		st                    *countingStore
		recs                  []segidx.Rect
		setups, nodes, writes []float64
		flushes               []float64
		e0                    engineCounts
	)
	for rep := 0; rep < setupReps; rep++ {
		if idx != nil {
			if err := idx.Close(); err != nil {
				return nil, err
			}
		}
		data := newRNG(cfg.seed, 100+uint64(rep))
		recs = make([]segidx.Rect, paperN)
		for i := range recs {
			recs[i] = genI3(data)
		}
		st = newCountingStore()
		t0 := time.Now()
		var err error
		idx, err = segidx.NewSkeletonSRTree(segidx.SkeletonEstimate{
			Tuples: paperN,
			Domain: segidx.Box(domLo, domLo, domHi, domHi),
		}, segidx.WithStore(st))
		if err != nil {
			return nil, err
		}
		for i, r := range recs {
			if err := idx.Insert(r, segidx.RecordID(i+1)); err != nil {
				return nil, err
			}
		}
		fs := time.Now()
		if err := idx.Flush(); err != nil {
			return nil, err
		}
		fe := time.Now()
		w.tr.add("store.flush", 0, fs, fe)
		flushes = append(flushes, float64(fe.Sub(fs).Nanoseconds())/1e3)
		setups = append(setups, fe.Sub(t0).Seconds())
		_, written := st.counts()
		writes = append(writes, float64(written)/(paperN*recordBytes))
		e0 = engineSnap(idx)
		n, err := nodesPerSearch(idx, newRNG(cfg.seed, 200+uint64(rep)), domHi)
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, n)
	}
	noteSetups(setups, nodes)
	m := map[string]float64{
		"setup_s":                   median(setups),
		"nodes_per_search":          mean(nodes),
		"write_bytes_per_user_byte": mean(writes),
	}

	mir := newMirror()
	for i, r := range recs {
		mir.insert(segidx.RecordID(i+1), r)
	}

	// Timed window: whole rounds until the window has passed.
	q := newRNG(cfg.seed, 3)
	r0 := engineSnap(idx)
	var peak uint64
	w.open = time.Now()
	deadline := w.open.Add(cfg.window)
	for time.Now().Before(deadline) {
		if err := paperRound(idx, w, q, recs); err != nil {
			return nil, err
		}
		if cfg.trace {
			peak = max(peak, poolStats(idx).Retained)
		}
	}
	r1 := engineSnap(idx)
	rec := &w.rec
	timedEndToEnd(m, rec, cfg.window)
	reads := rec.reads()
	layer := map[string]float64{}
	readSide(layer, r0, r1, reads, reads, rec.ops)
	writeSide(layer, r0, r1, ioCounts{}, ioCounts{}, rec.writes())
	// The insert path and the skeleton's adaptation are taken from the
	// last build, as the paper measures them.
	build := map[string]float64{}
	writeSide(build, engineCounts{}, e0, ioCounts{}, ioCounts{}, paperN)
	for _, k := range []string{"core.insert_nodes_per_insert", "core.splits_per_1k_inserts", "core.cuts_per_1k_inserts", "skeleton.coalesces"} {
		layer[k] = build[k]
	}
	layer["store.flush_p50_us"] = p50(flushes)
	layer["buffer.retained_versions_peak"] = float64(peak)
	layer["bench.traced_read_ops_s"] = m["read_ops_s"]
	held, _ := st.counts()
	m["disk_bytes_per_user_byte"] = float64(held) / (paperN * recordBytes)

	res := &result{endToEnd: m, perLayer: layer, attempted: rec.ops, failed: rec.fail, spans: w.tr.spansOrNil()}
	if err := paperCheck(idx, mir, newRNG(cfg.seed, 4), recs); err != nil {
		return res, fmt.Errorf("%w: %v", errCheck, err)
	}
	m["heap_mb"] = liveHeapMB()
	if err := idx.Close(); err != nil {
		return nil, err
	}
	idx, st = nil, nil // the index's memory is garbage from here on
	m["heap_mb"] -= liveHeapMB()
	return res, nil
}

// paperRound runs one round of the timed window.
func paperRound(idx *segidx.Index, w *worker, q *rng, recs []segidx.Rect) error {
	view := idx.Snapshot()
	defer view.Release()
	for _, qar := range qars {
		for i := 0; i < paperSearchesPerQAR; i++ {
			qr := qarQuery(q, qar, domLo, domHi)
			if err := w.do(kSearch, "core.search", func() error { _, err := idx.Search(qr); return err }); err != nil {
				return err
			}
		}
	}
	for i := 0; i < paperStabs; i++ {
		x, y := stabOn(q, recs)
		if err := w.do(kStab, "core.stab", func() error { _, err := idx.Stab(x, y); return err }); err != nil {
			return err
		}
	}
	for i := 0; i < paperSlices; i++ {
		s := slice(q.uniform(domLo, domHi))
		if err := w.do(kSlice, "core.slice", func() error { _, err := idx.Search(s); return err }); err != nil {
			return err
		}
	}
	for i := 0; i < paperChurn; i++ {
		n := q.intn(len(recs))
		id, r := segidx.RecordID(n+1), recs[n]
		err := w.do(kDelete, "core.delete", func() error {
			k, err := idx.Delete(id, r)
			if err == nil && k != 1 {
				err = fmt.Errorf("delete of record %d removed %d records", id, k)
			}
			return err
		})
		if err != nil {
			return err
		}
		if err := w.do(kInsert, "core.insert", func() error { return idx.Insert(r, id) }); err != nil {
			return err
		}
	}
	for i := 0; i < paperSnapStabs; i++ {
		x, y := stabOn(q, recs)
		p := segidx.Point(x, y)
		if err := w.do(kSnap, "core.snapshot_stab", func() error { _, err := view.SearchContaining(p); return err }); err != nil {
			return err
		}
	}
	return nil
}

// stabOn picks a point on a uniformly chosen record's segment, so a point
// stab on interval data hits at least that record (a uniform point in the
// plane would miss every degenerate segment).
func stabOn(q *rng, recs []segidx.Rect) (x, y float64) {
	r := recs[q.intn(len(recs))]
	return q.uniform(r.Min[0], r.Max[0]), r.Min[1]
}

// paperCheck compares a deterministic sample of searches, stabs and slices
// with the mirror, and Count with len(Search).
func paperCheck(idx *segidx.Index, mir *mirror, q *rng, recs []segidx.Rect) error {
	for _, qar := range qars {
		for i := 0; i < 8; i++ {
			qr := qarQuery(q, qar, domLo, domHi)
			got, err := idx.Search(qr)
			if err != nil {
				return err
			}
			if err := sameIDs("search", qr, got, mir.search(qr)); err != nil {
				return err
			}
			n, err := idx.Count(qr)
			if err != nil {
				return err
			}
			if n != len(got) {
				return fmt.Errorf("count %v = %d, search returned %d", qr, n, len(got))
			}
		}
	}
	for i := 0; i < 100; i++ {
		x, y := stabOn(q, recs)
		got, err := idx.Stab(x, y)
		if err != nil {
			return err
		}
		if err := sameIDs("stab", segidx.Point(x, y), got, mir.stab([]float64{x, y})); err != nil {
			return err
		}
	}
	for i := 0; i < 10; i++ {
		s := slice(q.uniform(domLo, domHi))
		got, err := idx.Search(s)
		if err != nil {
			return err
		}
		if err := sameIDs("slice", s, got, mir.search(s)); err != nil {
			return err
		}
	}
	return nil
}
