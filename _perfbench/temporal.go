package main

import (
	"container/heap"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"segidx"
)

// temporal_churn: an append-mostly history in the "increasing ending
// time" shape, on one durable SR-Tree with a stab sidecar on the time
// dimension at its default routing, driven from one goroutine with a Flush
// every flushEvery mutations. Dimension 0 is time, dimension 1 a key. A
// record opens as a now-interval [start, openEnd] and is later closed by
// Delete plus Insert of [start, end]. Closed records older than the
// retention horizon are purged by Delete, so the index stays the same size
// however many rounds a run makes. Reads mix point stabs (t, key),
// full-height time slices, range searches, and time-travel stabs against a
// snapshot that is pinned and then held across writes.
const (
	tcKeys    = 2048
	tcLevels  = 10     // sidecar hierarchy depth (segbench -levels default)
	tcOpenEnd = domHi  // "until changed": the end of an open record
	tcHorizon = 8000.0 // retained history, built in set-up; one record opened per unit
	tcStep    = 8      // time units per round, one record opened per unit
	// Read times follow the repository's TI stab mix (internal/workload,
	// TIStabTimes): TIRecentFraction = 0.8 of them fall in the trailing
	// TIRecentWindow = 5% of the time domain, here the retained history.
	tcRecentShare = 0.8
	tcRecent      = 0.05 * tcHorizon
	tcPinEvery    = 2 // rounds a held snapshot is kept before re-pinning
	// Untimed churn rounds between the set-up and the window, over which
	// heap_mb and write_bytes_per_user_byte are taken.
	tcPhaseRounds = 512
)

// One round of the timed window, after its writes. No source in the
// repository fixes these proportions; they are assumptions (README.md,
// "Where the proportions come from").
const (
	tcStabs     = 32
	tcSlices    = 1
	tcSearches  = 8
	tcSnapStabs = 8
)

type openRec struct {
	id         segidx.RecordID
	start, key float64
	closeAt    float64
}

type dueHeap []openRec

func (h dueHeap) Len() int           { return len(h) }
func (h dueHeap) Less(i, j int) bool { return h[i].closeAt < h[j].closeAt }
func (h dueHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *dueHeap) Push(x any)        { *h = append(*h, x.(openRec)) }
func (h *dueHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// history generates the record stream and applies it to the index and
// the mirror.
type history struct {
	idx     *segidx.Index
	gen     *rng
	mir     *mirror
	now     float64
	nextID  segidx.RecordID
	due     dueHeap
	closed  []segidx.Rect // closed records in closing order, for purging
	closeID []segidx.RecordID
	muts    int
	every   int     // group commit: Flush every this many mutations; 0 = none
	w       *worker // nil: untimed
	flushes []float64
}

func keyValue(k int) float64 { return (float64(k) + 0.5) * (domHi / tcKeys) }

// call runs one mutation, timed when the history has a worker.
func (h *history) call(k kind, name string, fn func() error) error {
	var err error
	if h.w != nil {
		err = h.w.do(k, name, fn)
	} else {
		err = fn()
	}
	if err != nil {
		return err
	}
	h.muts++
	if h.every == 0 || h.muts%h.every != 0 {
		return nil
	}
	start := time.Now()
	if err := h.idx.Flush(); err != nil {
		return err
	}
	end := time.Now()
	h.flushes = append(h.flushes, float64(end.Sub(start).Nanoseconds())/1e3)
	if h.w != nil {
		h.w.tr.add("store.flush", 0, start, end)
	}
	return nil
}

// advance moves time forward by dt, opening one record per unit, closing
// every open record whose end has passed before each open, and purging
// what has left the retention horizon.
func (h *history) advance(dt float64) error {
	n := int(dt)
	for j := 0; j < n; j++ {
		t := h.now + (float64(j)+h.gen.float())*dt/float64(n)
		for len(h.due) > 0 && h.due[0].closeAt <= t {
			if err := h.close(heap.Pop(&h.due).(openRec)); err != nil {
				return err
			}
		}
		o := openRec{id: h.nextID, start: t, key: keyValue(h.gen.intn(tcKeys))}
		o.closeAt = t + h.gen.exp(lenBeta, 0)
		h.nextID++
		r := segidx.Box(o.start, o.key, tcOpenEnd, o.key)
		if err := h.call(kInsert, "core.insert", func() error { return h.idx.Insert(r, o.id) }); err != nil {
			return err
		}
		h.mir.insert(o.id, r)
		heap.Push(&h.due, o)
	}
	h.now += dt
	return h.purge()
}

func (h *history) close(o openRec) error {
	open := segidx.Box(o.start, o.key, tcOpenEnd, o.key)
	err := h.call(kDelete, "core.delete", func() error {
		n, err := h.idx.Delete(o.id, open)
		if err == nil && n != 1 {
			err = fmt.Errorf("closing record %d removed %d records", o.id, n)
		}
		return err
	})
	if err != nil {
		return err
	}
	closed := segidx.Box(o.start, o.key, o.closeAt, o.key)
	if err := h.call(kInsert, "core.insert", func() error { return h.idx.Insert(closed, o.id) }); err != nil {
		return err
	}
	h.mir.insert(o.id, closed)
	h.closed = append(h.closed, closed)
	h.closeID = append(h.closeID, o.id)
	return nil
}

// purge deletes the closed records that ended before the retention
// horizon. Records close in end-time order, so they are the oldest.
func (h *history) purge() error {
	for len(h.closed) > 0 && h.closed[0].Max[0] < h.now-tcHorizon {
		r, id := h.closed[0], h.closeID[0]
		err := h.call(kDelete, "core.delete", func() error {
			n, err := h.idx.Delete(id, r)
			if err == nil && n != 1 {
				err = fmt.Errorf("purging record %d removed %d records", id, n)
			}
			return err
		})
		if err != nil {
			return err
		}
		h.mir.remove(id)
		h.closed, h.closeID = h.closed[1:], h.closeID[1:]
	}
	return nil
}

// readTime draws a read time: tcRecentShare of them in the recent band,
// the rest anywhere in the retained history.
func readTime(q *rng, now float64) float64 {
	if q.float() < tcRecentShare {
		return q.uniform(max(domLo, now-tcRecent), now)
	}
	return q.uniform(max(domLo, now-tcHorizon), now)
}

func temporalChurn(cfg *config) (*result, error) {
	// Set-up: setupReps histories, each of its own stream drawn from the
	// seed and committed by one Flush at its end; the group commit starts
	// with the churn that follows. setup_s is their median and
	// nodes_per_search their mean; the rest of the run uses the last.
	var (
		h             *history
		path          string
		setups, nodes []float64
	)
	for rep := 0; rep < setupReps; rep++ {
		if h != nil {
			err := h.idx.Close()
			h.idx = nil
			if err != nil {
				return nil, err
			}
			if err := os.RemoveAll(filepath.Dir(path)); err != nil {
				return nil, err
			}
		}
		path = filepath.Join(cfg.dir, fmt.Sprintf("rep%d", rep), "index.db")
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			return nil, err
		}
		t0 := time.Now()
		idx, err := segidx.NewSRTree(segidx.WithDurableFile(path), segidx.WithStabAccel(0, tcLevels))
		if err != nil {
			return nil, err
		}
		h = &history{idx: idx, gen: newRNG(cfg.seed, 100+uint64(rep)), mir: newMirror(), nextID: 1}
		if err := h.advance(tcHorizon); err != nil {
			return nil, errors.Join(err, idx.Close())
		}
		if err := idx.Flush(); err != nil {
			return nil, errors.Join(err, idx.Close())
		}
		setups = append(setups, time.Since(t0).Seconds())
		n, err := nodesPerSearch(idx, newRNG(cfg.seed, 200+uint64(rep)), h.now)
		if err != nil {
			return nil, errors.Join(err, idx.Close())
		}
		nodes = append(nodes, n)
	}
	noteSetups(setups, nodes)
	m := map[string]float64{
		"setup_s":          median(setups),
		"nodes_per_search": mean(nodes),
	}
	err := temporalPhase(cfg, h, m)
	var res *result
	if err == nil {
		res, err = temporalWindow(cfg, h, m, path)
	}
	if err != nil && h.idx != nil {
		err = errors.Join(err, h.idx.Close())
	}
	return res, err
}

// temporalPhase runs tcPhaseRounds rounds of the window's writes, untimed,
// with the window's snapshot policy, and takes the metrics that must not
// depend on how many rounds a timed window makes: the bytes written at the
// store boundary per user byte, and the live heap at the end of the phase
// with its last snapshot still held. The sidecar's columns and the
// retained versions are in that heap. Everything in the phase is a
// function of the seed, so both figures repeat for a seed.
func temporalPhase(cfg *config, h *history, m map[string]float64) error {
	// The set-up ended with a Flush; the phase starts the group commit and
	// ends with a Flush too, so every byte it causes is counted.
	h.muts, h.every = 0, flushEvery
	io0 := cfg.fs.counts()
	var view segidx.View
	for round := 0; round < tcPhaseRounds; round++ {
		if round%tcPinEvery == 0 {
			if view != nil {
				view.Release()
			}
			view = h.idx.Snapshot()
		}
		if err := h.advance(tcStep); err != nil {
			view.Release()
			return err
		}
	}
	if err := h.idx.Flush(); err != nil {
		view.Release()
		return err
	}
	written := cfg.fs.counts().sub(io0)
	m["write_bytes_per_user_byte"] = float64(written.bytes()) / float64(h.muts*recordBytes)
	m["heap_mb"] = liveHeapMB()
	view.Release()
	h.muts = 0
	return nil
}

// sideShare is the share of traced reads the sidecar answered.
func sideShare(lat [2][]float64) float64 {
	return ratio(float64(len(lat[1])), float64(len(lat[0])+len(lat[1])))
}

// routedAccel is the number of queries the sidecar has answered.
func routedAccel(idx *segidx.Index) uint64 {
	var n uint64
	for _, a := range idx.AccelStats() {
		n += a.RoutedAccel
	}
	return n
}

func temporalWindow(cfg *config, h *history, m map[string]float64, path string) (*result, error) {
	idx := h.idx

	w := &worker{}
	if cfg.trace {
		w.tr = newTracer(cfg.started, new(atomic.Int64))
	}
	h.w, h.flushes = w, nil
	q := newRNG(cfg.seed, 3)
	var (
		view   segidx.View
		pinNow float64
		peak   uint64
		// Traced: latencies (µs) of stabs and slices by the side that
		// answered them, [0] the tree, [1] the sidecar.
		bySide [nKinds][2][]float64
	)
	// shape runs one read and, when tracing, notes which side answered it.
	shape := func(k kind, name string, fn func() error) error {
		if !cfg.trace {
			return w.do(k, name, fn)
		}
		before := routedAccel(idx)
		err := w.do(k, name, fn)
		side := 0
		if routedAccel(idx) > before {
			side = 1
		}
		bySide[k][side] = append(bySide[k][side], w.rec.lat[k][len(w.rec.lat[k])-1])
		return err
	}
	defer func() {
		if view != nil {
			view.Release() // idempotent
		}
	}()
	e0, io0 := engineSnap(idx), cfg.fs.counts()
	w.open = time.Now()
	deadline := w.open.Add(cfg.window)
	for round := 0; time.Now().Before(deadline); round++ {
		if round%tcPinEvery == 0 {
			if view != nil {
				view.Release()
			}
			view, pinNow = idx.Snapshot(), h.now
		}
		if err := h.advance(tcStep); err != nil {
			return nil, err
		}
		for i := 0; i < tcStabs; i++ {
			p := segidx.Point(readTime(q, h.now), keyValue(q.intn(tcKeys)))
			if err := shape(kStab, "core.stab", func() error { _, err := idx.Stab(p.Min...); return err }); err != nil {
				return nil, err
			}
		}
		for i := 0; i < tcSlices; i++ {
			s := slice(readTime(q, h.now))
			if err := shape(kSlice, "core.slice", func() error { _, err := idx.Search(s); return err }); err != nil {
				return nil, err
			}
		}
		for i := 0; i < tcSearches; i++ {
			qr := qarQuery(q, qars[(round*tcSearches+i)%len(qars)], h.now-tcHorizon, h.now)
			if err := w.do(kSearch, "core.search", func() error { _, err := idx.Search(qr); return err }); err != nil {
				return nil, err
			}
		}
		for i := 0; i < tcSnapStabs; i++ {
			p := segidx.Point(q.uniform(pinNow-tcHorizon, pinNow), keyValue(q.intn(tcKeys)))
			if err := w.do(kSnap, "core.snapshot_stab", func() error { _, err := view.SearchContaining(p); return err }); err != nil {
				return nil, err
			}
		}
		if cfg.trace {
			peak = max(peak, poolStats(idx).Retained)
		}
	}
	view.Release()
	e1, io1 := engineSnap(idx), cfg.fs.counts()

	rec := &w.rec
	timedEndToEnd(m, rec, cfg.window)
	layer := map[string]float64{
		"store.flush_p50_us":            p50(h.flushes),
		"buffer.retained_versions_peak": float64(peak),
		"accel.stab_sidecar_share":      sideShare(bySide[kStab]),
		"accel.slice_sidecar_share":     sideShare(bySide[kSlice]),
		"accel.stab_tree_p50_us":        p50(bySide[kStab][0]),
		"accel.stab_sidecar_p50_us":     p50(bySide[kStab][1]),
		"accel.slice_tree_p50_us":       p50(bySide[kSlice][0]),
		"accel.slice_sidecar_p50_us":    p50(bySide[kSlice][1]),
		"bench.traced_read_ops_s":       m["read_ops_s"],
	}
	reads := rec.reads()
	readSide(layer, e0, e1, reads, reads, rec.ops)
	writeSide(layer, e0, e1, io0, io1, rec.writes())
	res := &result{endToEnd: m, perLayer: layer, attempted: rec.ops, failed: rec.fail, spans: w.tr.spansOrNil()}

	h.w = nil
	if err := temporalCheck(h, newRNG(cfg.seed, 4)); err != nil {
		return res, fmt.Errorf("%w: %v", errCheck, err)
	}
	if err := idx.Flush(); err != nil {
		return nil, err
	}
	disk, err := dirBytes(filepath.Dir(path))
	if err != nil {
		return nil, err
	}
	m["disk_bytes_per_user_byte"] = float64(disk) / float64(len(h.mir.recs)*recordBytes)
	err = idx.Close()
	h.idx = nil
	if err != nil {
		return nil, err
	}
	return res, nil
}

// temporalCheck compares live answers with the mirror, then pins a
// snapshot, keeps writing, and compares the snapshot's answers with the
// mirror as of the pin.
func temporalCheck(h *history, q *rng) error {
	live := func() error {
		for i := 0; i < 100; i++ {
			p := []float64{readTime(q, h.now), keyValue(q.intn(tcKeys))}
			got, err := h.idx.Stab(p...)
			if err != nil {
				return err
			}
			if err := sameIDs("stab", segidx.Point(p...), got, h.mir.stab(p)); err != nil {
				return err
			}
		}
		for i := 0; i < 10; i++ {
			s := slice(readTime(q, h.now))
			got, err := h.idx.Search(s)
			if err != nil {
				return err
			}
			if err := sameIDs("slice", s, got, h.mir.search(s)); err != nil {
				return err
			}
		}
		for i := 0; i < 26; i++ {
			qr := qarQuery(q, qars[i%len(qars)], h.now-tcHorizon, h.now)
			got, err := h.idx.Search(qr)
			if err != nil {
				return err
			}
			if err := sameIDs("search", qr, got, h.mir.search(qr)); err != nil {
				return err
			}
		}
		return nil
	}
	if err := live(); err != nil {
		return err
	}
	view, pinNow, at := h.idx.Snapshot(), h.now, h.mir.clone()
	defer view.Release()
	for i := 0; i < 8; i++ {
		if err := h.advance(tcStep); err != nil {
			return err
		}
	}
	for i := 0; i < 50; i++ {
		p := []float64{q.uniform(pinNow-tcHorizon, pinNow), keyValue(q.intn(tcKeys))}
		got, err := view.SearchContaining(segidx.Point(p...))
		if err != nil {
			return err
		}
		if err := sameIDs("snapshot stab", segidx.Point(p...), got, at.stab(p)); err != nil {
			return err
		}
	}
	for i := 0; i < 5; i++ {
		s := slice(readTime(q, pinNow))
		got, err := view.Search(s)
		if err != nil {
			return err
		}
		if err := sameIDs("snapshot slice", s, got, at.search(s)); err != nil {
			return err
		}
	}
	return live()
}
