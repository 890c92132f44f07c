package experiments

// The simdb experiment measures the persistent similarity database
// (ROADMAP item 5, DESIGN.md §14) end to end:
//
//	startup   store-backed fingerprint/signature/index rehydration at a 1%
//	          delta vs a full recompute+rebuild of the same corpus — the
//	          zero-rebuild-startup payoff, gated ≥3× on the full run
//	probe     per-query latency of the rehydrated LSH index, with every
//	          probe answer checked against a from-scratch in-memory index
//	identity  a session restarting onto a warm store must produce merge
//	          decisions bit-identical to a plain storeless cold run, for
//	          workers {1, 2, 8}, all against one shared segment file
//
// Both startup windows perform the session pipeline's full startup work:
// Session.Submit keys every pool function for its session table on every
// submit, store or no store (explore/session.go), so each side pays the
// content-key pass, and they differ only in what follows — the cold side
// recomputes every fingerprint and signature and builds the index from
// nothing, while the warm side replays the segment, reuses every key hit,
// recomputes only the delta and flushes it back.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"fmsa/internal/explore"
	"fmsa/internal/fingerprint"
	"fmsa/internal/global"
	"fmsa/internal/ir"
	"fmsa/internal/lsh"
	"fmsa/internal/passes"
	"fmsa/internal/serve"
	"fmsa/internal/simdb"
	"fmsa/internal/tti"
	"fmsa/internal/workload"
)

// startupAttempts is how many times each startup window is sampled; the
// minimum wall clock is the reported figure (see the window comments).
const startupAttempts = 3

// SimDBConfig parameterizes the simdb experiment.
type SimDBConfig struct {
	// Threshold is the exploration threshold for the identity phase (<= 0
	// selects 2 — merge-rich on the identity corpus).
	Threshold int
	// DeltaFrac is the fraction of functions edited between the stored
	// corpus and the restarted one (<= 0 selects 0.01).
	DeltaFrac float64
	// Quick shrinks the corpus for a smoke run and skips the 3x gate.
	Quick bool
	// MinSpeedup is the store-backed startup floor the full run gates on
	// (<= 0 selects 3.0).
	MinSpeedup float64
}

// SimDBResult is one JSON line of the simdb experiment (BENCH_PR10.json).
type SimDBResult struct {
	// Phase: "startup", "probe" or "identity".
	Phase  string `json:"phase"`
	Corpus string `json:"corpus"`
	Funcs  int    `json:"funcs"`
	// Workers is the identity phase's per-merge worker count.
	Workers   int     `json:"workers,omitempty"`
	DeltaFrac float64 `json:"delta_frac,omitempty"`
	// ColdNS is the full recompute+rebuild wall clock, WarmNS the
	// store-backed rehydration of the same corpus (startup phase).
	ColdNS  int64   `json:"cold_ns,omitempty"`
	WarmNS  int64   `json:"warm_ns,omitempty"`
	Speedup float64 `json:"speedup,omitempty"`
	// StoreHits/StoreMisses classify the corpus against the store.
	StoreHits   int `json:"store_hits,omitempty"`
	StoreMisses int `json:"store_misses,omitempty"`
	// SegmentBytes is the on-disk segment size backing the phase.
	SegmentBytes int64 `json:"segment_bytes,omitempty"`
	// Probe latency percentiles over every signed live record (probe phase).
	Probes int   `json:"probes,omitempty"`
	P50NS  int64 `json:"p50_ns,omitempty"`
	P95NS  int64 `json:"p95_ns,omitempty"`
	P99NS  int64 `json:"p99_ns,omitempty"`
	// BitIdentical: probe answers match a from-scratch index (probe phase),
	// or merge decisions match the storeless cold run (identity phase).
	BitIdentical bool `json:"bit_identical"`
}

// simdbFuncState is one definition's precomputed similarity state.
type simdbFuncState struct {
	f    *ir.Func
	key  []byte
	hash uint64
	self bool
}

// SimDB runs the full experiment; profiles supplies the corpus pool and the
// largest is measured.
func SimDB(profiles []workload.Profile, tgt tti.Target, cfg SimDBConfig) ([]SimDBResult, error) {
	if cfg.Threshold <= 0 {
		cfg.Threshold = 2
	}
	if cfg.DeltaFrac <= 0 {
		cfg.DeltaFrac = 0.01
	}
	if cfg.MinSpeedup <= 0 {
		cfg.MinSpeedup = 3.0
	}

	big := profiles[0]
	for _, p := range profiles {
		if p.NumFuncs > big.NumFuncs {
			big = p
		}
	}
	idProfile := big
	if cfg.Quick {
		big.NumFuncs = 350
		if big.MaxSize > 200 {
			big.MaxSize = 200
		}
		idProfile = big
	} else {
		best := workload.Profile{}
		for _, p := range profiles {
			if p.NumFuncs < big.NumFuncs/4 && p.NumFuncs > best.NumFuncs {
				best = p
			}
		}
		if best.NumFuncs > 0 {
			idProfile = best
		}
	}

	dir, err := os.MkdirTemp("", "fmsa-simdb-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	segPath := filepath.Join(dir, "corpus.fmdb")

	var rows []SimDBResult

	// Populate the store from the pristine big corpus (untimed), exactly as
	// a prior batch run would have left it.
	corpus := buildServeCorpus(big)
	passes.DemotePhisModule(corpus.m)
	store, err := simdb.Open(segPath, big.Name, simdb.Options{})
	if err != nil {
		return nil, err
	}
	for _, st := range simdbStates(corpus.m) {
		fp := fingerprint.Compute(st.f)
		store.Put(simdb.Record{
			Hash: st.hash, Name: st.f.Name(), Linkage: st.f.Linkage,
			SelfEq: st.self, Size: fp.Total, Key: st.key, Fp: fp,
			Sig: fingerprint.ComputeSignature(st.f),
		})
	}
	if err := store.Flush(); err != nil {
		return nil, err
	}
	segBytes := store.Stats().SegmentBytes

	// Edit DeltaFrac of the corpus: the restarted process sees a corpus
	// that is (1-DeltaFrac) covered by the segment.
	edited := corpus.mutate(cfg.DeltaFrac, 1)
	defs := corpus.m.Definitions()

	// Both windows perform the session pipeline's startup work (Submit keys
	// every pool function for the session table — with or without a store —
	// then fingerprints and signs, then builds the index); the windows
	// differ only in recompute versus replay+reuse. Keying and lookups fan
	// out across the cores exactly like the pipeline's par.For pass;
	// results land at their definition index, so the outcome is identical
	// for any worker count. A forced collection ahead of each timed window
	// keeps background GC mark assists from smearing one window's
	// allocation debt into the other.
	keyAll := func(onKeyed func(i int, key []byte, hash uint64)) {
		workers := runtime.GOMAXPROCS(0)
		if workers > len(defs) {
			workers = len(defs)
		}
		chunk := (len(defs) + workers - 1) / workers
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo, hi := w*chunk, min((w+1)*chunk, len(defs))
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				var keyBuf []byte // per-worker, reused across its definitions
				for i := lo; i < hi; i++ {
					key, _ := global.AppendStableKey(keyBuf[:0], defs[i])
					keyBuf = key
					onKeyed(i, key, global.HashStableKey(key))
				}
			}()
		}
		wg.Wait()
	}

	// Each window reports the best of startupAttempts runs (bestOf).

	// Cold startup: key the corpus for the session table, recompute every
	// fingerprint and signature, and build the index from nothing — what
	// every process start paid before the store.
	var cold bestOf
	var coldSigs []*fingerprint.Signature
	var coldIx *lsh.Index
	for attempt := 0; attempt < startupAttempts; attempt++ {
		cold.run(func() {
			keyAll(func(int, []byte, uint64) {})
			coldSigs = make([]*fingerprint.Signature, len(defs))
			for i, f := range defs {
				fingerprint.Compute(f)
				coldSigs[i] = fingerprint.ComputeSignature(f)
			}
			coldIx = lsh.New()
			for i, sig := range coldSigs {
				coldIx.Insert(int32(i), sig)
			}
		})
	}

	// Warm startup: replay the segment, key the corpus (the same pass the
	// cold side ran), reuse every hit, recompute only the delta, and write
	// the delta back. Misses are re-keyed serially in index order. Every
	// attempt starts from a pristine copy of the segment so the delta
	// write-back of one attempt is invisible to the next.
	segBytesOrig, err := os.ReadFile(segPath)
	if err != nil {
		return nil, err
	}
	var warm bestOf
	var warmSigs []*fingerprint.Signature
	var warmIx *lsh.Index
	var wStore *simdb.Store
	var hits, misses int
	for attempt := 0; attempt < startupAttempts; attempt++ {
		attemptPath := filepath.Join(dir, "warm-attempt.fmdb")
		if err := os.WriteFile(attemptPath, segBytesOrig, 0o644); err != nil {
			return nil, err
		}
		warm.run(func() {
			if wStore, err = simdb.Open(attemptPath, big.Name, simdb.Options{}); err != nil {
				return
			}
			warmSigs = make([]*fingerprint.Signature, len(defs))
			bands := make([][]uint64, len(defs))
			missed := make([]bool, len(defs))
			keyAll(func(i int, key []byte, hash uint64) {
				rec := wStore.Lookup(hash, key)
				if rec != nil && rec.Sig != nil {
					warmSigs[i] = rec.Sig
					bands[i] = rec.Bands
				} else {
					missed[i] = true
				}
			})
			hits, misses = 0, 0
			for i, f := range defs {
				if !missed[i] {
					hits++
					continue
				}
				misses++
				key, selfEq := global.AppendStableKey(nil, f)
				fp := fingerprint.Compute(f)
				warmSigs[i] = fingerprint.ComputeSignature(f)
				bands[i] = lsh.AppendBandKeys(warmSigs[i], nil)
				wStore.Put(simdb.Record{
					Hash: global.HashStableKey(key), Name: f.Name(), Linkage: f.Linkage,
					SelfEq: selfEq, Size: fp.Total, Key: key, Fp: fp, Sig: warmSigs[i],
					Bands: bands[i],
				})
			}
			warmIx = lsh.NewFromBandKeys(bands)
			err = wStore.Flush()
		})
		if err != nil {
			return nil, err
		}
	}
	coldNS, warmNS := cold.min.Nanoseconds(), warm.min.Nanoseconds()

	speedup := float64(coldNS) / float64(warmNS)
	startIdentical := true
	for i := range defs {
		if *coldSigs[i] != *warmSigs[i] {
			startIdentical = false
			break
		}
	}
	rows = append(rows, SimDBResult{
		Phase: "startup", Corpus: big.Name, Funcs: len(defs),
		DeltaFrac: cfg.DeltaFrac, ColdNS: coldNS, WarmNS: warmNS,
		Speedup: speedup, StoreHits: hits, StoreMisses: misses,
		SegmentBytes: segBytes, BitIdentical: startIdentical,
	})
	if !startIdentical {
		return rows, fmt.Errorf("simdb: rehydrated signatures diverged from recomputed ones on %s", big.Name)
	}
	if misses < edited {
		return rows, fmt.Errorf("simdb: %d edited functions but only %d store misses", edited, misses)
	}

	// Probe phase: query latency of the rehydrated index, every answer
	// checked against the cold-built index over the same id space.
	lat := make([]time.Duration, 0, len(defs))
	probeIdentical := true
	for i := range defs {
		t0 := time.Now()
		got := warmIx.Probe(warmSigs[i], int32(i))
		lat = append(lat, time.Since(t0))
		want := coldIx.Probe(coldSigs[i], int32(i))
		if len(got) != len(want) {
			probeIdentical = false
		} else {
			for k := range got {
				if got[k] != want[k] {
					probeIdentical = false
					break
				}
			}
		}
		if !probeIdentical {
			break
		}
	}
	p50, p95, p99 := latencyPercentiles(lat)
	rows = append(rows, SimDBResult{
		Phase: "probe", Corpus: big.Name, Funcs: len(defs), Probes: len(lat),
		P50NS: p50, P95NS: p95, P99NS: p99,
		SegmentBytes: wStore.Stats().SegmentBytes, BitIdentical: probeIdentical,
	})
	if !probeIdentical {
		return rows, fmt.Errorf("simdb: rehydrated index answered a probe differently from a from-scratch build on %s", big.Name)
	}

	// Identity phase: a session restarting onto the shared store must merge
	// bit-identically to a storeless cold run, for every worker count. The
	// segment file is shared across the sweep — later runs see earlier
	// runs' write-backs, which must remain invisible.
	idPath := filepath.Join(dir, "identity.fmdb")
	baseOpts := explore.DefaultOptions()
	baseOpts.Threshold = cfg.Threshold
	baseOpts.Target = tgt
	baseOpts.Ranking = explore.RankLSH
	baseOpts.LSHMinPool = 1

	popStore, err := simdb.Open(idPath, idProfile.Name, simdb.Options{})
	if err != nil {
		return rows, err
	}
	popOpts := baseOpts
	popOpts.Workers = 1
	popSess, err := explore.NewSession(explore.SessionConfig{Explore: popOpts, Store: popStore})
	if err != nil {
		return rows, err
	}
	if _, _, err := popSess.Submit(buildIdentityModule(idProfile, cfg.DeltaFrac, false)); err != nil {
		return rows, err
	}

	var refDigest uint64
	var refRep *explore.Report
	for i, workers := range []int{1, 2, 8} {
		opts := baseOpts
		opts.Workers = workers

		mPlain := buildIdentityModule(idProfile, cfg.DeltaFrac, true)
		plainRep := explore.Run(mPlain, opts)

		st, err := simdb.Open(idPath, idProfile.Name, simdb.Options{})
		if err != nil {
			return rows, err
		}
		sess, err := explore.NewSession(explore.SessionConfig{Explore: opts, Store: st})
		if err != nil {
			return rows, err
		}
		mWarm := buildIdentityModule(idProfile, cfg.DeltaFrac, true)
		warmRep, delta, err := sess.Submit(mWarm)
		if err != nil {
			return rows, err
		}
		if delta.StoreHits == 0 {
			return rows, fmt.Errorf("simdb: identity run at workers=%d reused nothing from the store", workers)
		}

		digest := serve.RecordsDigest(warmRep.Records)
		ok := digest == serve.RecordsDigest(plainRep.Records) &&
			warmRep.MergeOps == plainRep.MergeOps &&
			warmRep.SizeAfter == plainRep.SizeAfter &&
			warmRep.CandidatesEvaluated == plainRep.CandidatesEvaluated
		if i == 0 {
			refDigest, refRep = digest, warmRep
		} else {
			ok = ok && digest == refDigest && warmRep.MergeOps == refRep.MergeOps &&
				warmRep.SizeAfter == refRep.SizeAfter
		}
		rows = append(rows, SimDBResult{
			Phase: "identity", Corpus: idProfile.Name, Funcs: delta.Funcs,
			Workers: workers, DeltaFrac: cfg.DeltaFrac,
			StoreHits: delta.StoreHits, StoreMisses: delta.StoreMisses,
			SegmentBytes: st.Stats().SegmentBytes, BitIdentical: ok,
		})
		if !ok {
			return rows, fmt.Errorf("simdb: store-backed merge decisions diverged at workers=%d on %s", workers, idProfile.Name)
		}
	}

	if !cfg.Quick && speedup < cfg.MinSpeedup {
		return rows, fmt.Errorf("simdb: store-backed startup %.2fx below the %.1fx floor (cold %.2fs, warm %.2fs)",
			speedup, cfg.MinSpeedup, float64(coldNS)/1e9, float64(warmNS)/1e9)
	}
	return rows, nil
}

// simdbStates keys every definition of a φ-demoted module.
func simdbStates(m *ir.Module) []simdbFuncState {
	defs := m.Definitions()
	states := make([]simdbFuncState, len(defs))
	for i, f := range defs {
		key, selfEq := global.AppendStableKey(nil, f)
		states[i] = simdbFuncState{f: f, key: key, hash: global.HashStableKey(key), self: selfEq}
	}
	return states
}

// buildIdentityModule deterministically reconstructs the identity corpus:
// the pristine profile build, optionally with the DeltaFrac edit applied —
// every call returns a bit-identical fresh module.
func buildIdentityModule(p workload.Profile, deltaFrac float64, edited bool) *ir.Module {
	c := buildServeCorpus(p)
	if edited {
		c.mutate(deltaFrac, 1)
	}
	return c.m
}
