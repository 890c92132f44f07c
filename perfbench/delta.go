package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"fmsa/internal/baseline"
	"fmsa/internal/explore"
	"fmsa/internal/serve"
	"fmsa/internal/simdb"
	"fmsa/internal/tti"
	"fmsa/internal/wire"
	"fmsa/internal/workload"
)

const (
	// deltaRounds is how many gobmk draws serve-delta streams per run, one
	// daemon and session each: a single draw's latency and size reduction
	// swing by a tenth or more from seed to seed.
	deltaRounds = 4
	// passOps resubmits make one serve-delta pass (compile_s) and one
	// traced stream.
	passOps = 10
	// roundOps resubmits at least per round, so that a run has at least
	// 120 latency samples and ten of them lie above p90; the roundOps-th
	// resubmit, which every run reaches, supplies the size and runtime
	// figures. maxOps bounds a round on a fast host.
	roundOps = 30
	maxOps   = 5000
)

// deltaProfiles are serve-delta's corpora: draws of 445.gobmk.
func deltaProfiles(cfg config, n int) ([]workload.Profile, error) {
	for _, p := range workload.SPECLike() {
		if p.Name == "445.gobmk" {
			ps := []workload.Profile{p}
			if cfg.tiny {
				ps = shrink(ps)
			}
			return draw(ps, cfg.seed, n), nil
		}
	}
	return nil, errors.New("no 445.gobmk profile")
}

// daemon is an in-process fmsa-serve on loopback, backed by a similarity
// store, with one client connection and one open session.
type daemon struct {
	srv    *serve.Server
	cl     *serve.Client
	sess   uint64
	served chan error
}

// startDaemon opens the store segment at path and starts the server.
func startDaemon(path string, opts explore.Options) (*daemon, error) {
	store, err := simdb.Open(path, "perfbench", simdb.Options{})
	if err != nil {
		return nil, fmt.Errorf("open store: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: serve.New(serve.Config{Explore: opts, Store: store}), served: make(chan error, 1)}
	go func() { d.served <- d.srv.Serve(ln) }()
	if d.cl, err = serve.Dial(ln.Addr().String()); err != nil {
		return nil, errors.Join(err, d.stop())
	}
	if d.sess, err = d.cl.Open(nil); err != nil {
		return nil, errors.Join(err, d.stop())
	}
	return d, nil
}

// submit sends one module and waits for its result; the returned latency
// runs from Client.Submit to Pending.Wait.
func (d *daemon) submit(b []byte) (serve.Result, time.Duration, error) {
	start := time.Now()
	p, err := d.cl.Submit(d.sess, b)
	if err != nil {
		return serve.Result{}, 0, err
	}
	res, err := p.Wait()
	return res, time.Since(start), err
}

// stop closes the client, drains the server and waits for Serve to return.
func (d *daemon) stop() error {
	if d.cl != nil {
		d.cl.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	if serr := <-d.served; !errors.Is(serr, serve.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return err
}

// freshPath returns a store segment path under the state directory with
// no segment left from an earlier run.
func freshPath(cfg config, name string) (string, error) {
	path := filepath.Join(cfg.state, name+".fmdb")
	if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
		return "", err
	}
	return path, nil
}

// warmProblems checks that a resubmit ran against warm session state.
func warmProblems(res serve.Result) []string {
	if !res.Delta.Warm || res.Delta.Unchanged == 0 {
		return []string{fmt.Sprintf("resubmit did not run warm: %+v", res.Delta)}
	}
	return nil
}

// sameAsReference checks a served result against a cold, storeless compile
// of the same bytes.
func sameAsReference(res serve.Result, c compiled) []string {
	if res.RecordsDigest != c.digest || res.SizeAfter != c.sizeAfter {
		return []string{fmt.Sprintf("served result differs from cold storeless run: digest %x/%x, size after %d/%d",
			res.RecordsDigest, c.digest, res.SizeAfter, c.sizeAfter)}
	}
	return nil
}

func errProblems(what string, err error) []string {
	if err == nil {
		return nil
	}
	return []string{what + ": " + err.Error()}
}

// runServeDelta is the serve-delta workload: a client in a closed loop
// resubmits 445.gobmk to a warm session, each time with another 1% of its
// functions edited; deltaRounds draws of the corpus run one after another.
func runServeDelta(cfg config) (*result, error) {
	if cfg.trace {
		ps, err := deltaProfiles(cfg, 1)
		if err != nil {
			return nil, err
		}
		return traceServeDelta(cfg, ps[0])
	}
	ps, err := deltaProfiles(cfg, deltaRounds)
	if err != nil {
		return nil, err
	}
	r := &result{}
	var all roundStats
	var setupS []float64
	var before, after int
	var ratios []float64
	for j, p := range ps {
		rs, err := deltaRound(cfg, p, cfg.seed*deltaRounds+int64(j), cfg.seconds/deltaRounds, r)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, rs.setupS)
		all.latMS = append(all.latMS, rs.latMS...)
		all.allocMB = append(all.allocMB, rs.allocMB...)
		all.passS = append(all.passS, rs.passS...)
		before += rs.fixed.SizeBefore
		after += rs.fixed.SizeAfter
		if rs.ratio > 0 {
			ratios = append(ratios, rs.ratio)
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	r.note("445.gobmk x %d draws: %d resubmits (latency samples) in %d passes of %d; Workers=%d",
		len(ps), len(all.latMS), len(all.passS), passOps, workers)
	r.add("compile_s", "s", median(all.passS))
	r.add("latency_p50_ms", "ms", quantile(all.latMS, 0.5))
	r.add("latency_p90_ms", "ms", quantile(all.latMS, 0.9))
	r.add("size_reduction_pct", "%", 100*float64(before-after)/float64(max(before, 1)))
	r.add("runtime_overhead", "ratio", geomean(ratios))
	r.add("setup_s", "s", median(setupS))
	r.add("alloc_mb", "MB", median(all.allocMB))
	r.add("peak_rss_mb", "MB", rss)
	return r, nil
}

// roundStats are one serve-delta round's samples.
type roundStats struct {
	setupS                float64
	latMS, allocMB, passS []float64
	fixed                 serve.Result // the roundOps-th resubmit
	ratio                 float64      // its runtime overhead
}

// deltaRound serves one corpus draw. Set-up is simdb.Open on a fresh
// segment, server start and the cold priming submit; then the client
// resubmits edits for at least roundOps resubmits and budget seconds.
func deltaRound(cfg config, p workload.Profile, seed int64, budget float64, r *result) (roundStats, error) {
	var rs roundStats
	m := workload.Build(p)
	ed := newEditor(m, seed)
	base, err := wire.Encode(m)
	if err != nil {
		return rs, err
	}
	opts := exploreOptions(workers, nil)
	path, err := freshPath(cfg, "serve")
	if err != nil {
		return rs, err
	}
	runtime.GC()
	start := time.Now()
	d, err := startDaemon(path, opts)
	if err != nil {
		return rs, err
	}
	_, _, err = d.submit(base)
	rs.setupS = time.Since(start).Seconds()
	r.op(errProblems(p.Name+": priming submit", err))

	kept := map[int][]byte{} // the inputs the reference check needs
	var lastIn []byte
	var results []serve.Result
	var problems [][]string
	start = time.Now()
	for n := 0; n < maxOps && (n < roundOps || n%passOps != 0 || time.Since(start).Seconds() < budget); n++ {
		ed.edit(n)
		b, err := wire.Encode(m)
		if err != nil {
			return rs, errors.Join(err, d.stop())
		}
		if n%passOps == 0 {
			runtime.GC()
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		res, lat, err := d.submit(b)
		runtime.ReadMemStats(&m1)
		rs.latMS = append(rs.latMS, ms(lat))
		rs.allocMB = append(rs.allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
		results = append(results, res)
		if err != nil {
			problems = append(problems, errProblems("resubmit", err))
		} else {
			problems = append(problems, warmProblems(res))
		}
		if n == 0 || n == roundOps-1 {
			kept[n] = b
		}
		lastIn = b
	}
	kept[len(results)-1] = lastIn
	if err := d.stop(); err != nil {
		return rs, err
	}

	// Outside the timed region: the first, the roundOps-th and the last
	// resubmit must equal a cold, storeless explore.Run on the same bytes,
	// and their outputs pass the interpreter check.
	for n, in := range kept {
		c := compile(in, opts, false, nil)
		ratio, outProblems := checkOutput(in, c.out, c.sizeAfter)
		problems[n] = append(problems[n], c.problems...)
		problems[n] = append(problems[n], sameAsReference(results[n], c)...)
		problems[n] = append(problems[n], outProblems...)
		if n == roundOps-1 {
			rs.ratio = ratio
		}
	}
	for _, ps := range problems {
		r.op(named(p.Name, ps))
	}
	rs.fixed = results[roundOps-1]
	for i := 0; i+passOps <= len(rs.latMS); i += passOps {
		var sum float64
		for _, l := range rs.latMS[i : i+passOps] {
			sum += l
		}
		rs.passS = append(rs.passS, sum/1e3)
	}
	return rs, nil
}

// deltaTrace is one traced delta stream over a module (see traceDelta).
type deltaTrace struct {
	tr             *tracer
	inputs         [][]byte       // priming bytes, then passOps resubmits
	results        []serve.Result // the daemon's result for each input
	encode, stream *window        // client encodes; the session stream
	counts         exploreCounts
	align          alignTrace
	layers         sessionLayers
	overheadPct    float64
}

// traceDelta drives passOps 1% edits of the module in `in` two ways, with
// Workers=1. The daemon path (untraced: fresh store, server, priming
// submit, resubmits) gives the latency split between session and serving.
// The direct path calls simdb.Open, explore.NewSession and, per input,
// wire.Decode and Session.Submit with the align shim installed; it runs
// twice, and its counters must repeat and its decisions match the
// daemon's. Its first run supplies the explore, align, core and store
// figures.
func traceDelta(cfg config, in []byte, r *result) (*deltaTrace, error) {
	m, err := wire.Decode(in, wire.Options{Workers: 1})
	if err != nil {
		return nil, err
	}
	ed := newEditor(m, cfg.seed)
	tr := newTracer()
	d := &deltaTrace{tr: tr, inputs: [][]byte{in}}
	d.encode = tr.window()
	for k := 0; k < passOps; k++ {
		ed.edit(k)
		id := tr.begin("wire.encode")
		b, err := wire.Encode(m)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		d.inputs = append(d.inputs, b)
	}
	tr.close(d.encode)

	path, err := freshPath(cfg, "trace-daemon")
	if err != nil {
		return nil, err
	}
	dm, err := startDaemon(path, exploreOptions(1, nil))
	if err != nil {
		return nil, err
	}
	var wallMS, overheadMS []float64
	for k, b := range d.inputs {
		res, lat, err := dm.submit(b)
		d.results = append(d.results, res)
		if err != nil || k == 0 {
			r.op(errProblems("submit", err))
			continue
		}
		wallMS = append(wallMS, float64(res.WallNS)/1e6)
		overheadMS = append(overheadMS, ms(lat)-float64(res.WallNS)/1e6)
		sumDelta(&d.layers.delta, res.Delta)
		r.op(warmProblems(res))
	}
	if err := dm.stop(); err != nil {
		return nil, err
	}

	var reps [2][6]int64
	var directMS []float64
	for run := range reps {
		path, err := freshPath(cfg, fmt.Sprintf("trace-session%d", run))
		if err != nil {
			return nil, err
		}
		store, err := simdb.Open(path, "perfbench", simdb.Options{})
		if err != nil {
			return nil, err
		}
		sess, err := explore.NewSession(explore.SessionConfig{Explore: exploreOptions(1, tr), Store: store})
		if err != nil {
			return nil, err
		}
		submit := func(b []byte) (*explore.Report, time.Duration, error) {
			start := time.Now()
			id := tr.begin("wire.decode")
			mk, err := wire.Decode(b, wire.Options{Workers: 1})
			tr.end(id)
			if err != nil {
				return nil, 0, err
			}
			id = tr.begin("explore.session")
			rep, _, err := sess.Submit(mk)
			tr.end(id)
			return rep, time.Since(start), err
		}
		if _, _, err := submit(d.inputs[0]); err != nil {
			return nil, err
		}
		w := tr.window()
		var counts exploreCounts
		for k, b := range d.inputs[1:] {
			rep, took, err := submit(b)
			if err != nil {
				r.op(errProblems("session submit", err))
				continue
			}
			counts.add(rep)
			var problems []string
			if len(rep.VerifyDiags) > 0 {
				problems = append(problems, fmt.Sprintf("exploration verifier: %d findings", len(rep.VerifyDiags)))
			}
			want := d.results[k+1]
			if got := serve.RecordsDigest(rep.Records); got != want.RecordsDigest || rep.SizeAfter != want.SizeAfter {
				problems = append(problems, fmt.Sprintf("with/without align shim: digest %x/%x, size after %d/%d",
					got, want.RecordsDigest, rep.SizeAfter, want.SizeAfter))
			}
			r.op(problems)
			if run == 0 {
				directMS = append(directMS, ms(took))
			}
		}
		tr.close(w)
		reps[run] = repeatable(counts, tr.align(w))
		if run > 0 {
			continue
		}
		d.stream, d.counts, d.align = w, counts, tr.align(w)
		st := store.Stats()
		d.layers.segmentMB = float64(st.SegmentBytes) / (1 << 20)
		d.layers.deadFrac = frac(int64(st.Dead), int64(st.Written))
		d.layers.compactions = st.Compactions
		// What a restart pays: reopen the populated segment.
		start := time.Now()
		if _, err := simdb.Open(path, "perfbench", simdb.Options{}); err != nil {
			return nil, fmt.Errorf("reopen store: %w", err)
		}
		d.layers.openMS = ms(time.Since(start))
	}
	r.op(append(checkRepeat(reps[0], reps[1]), checkShimCells(d.counts, d.align)...))
	d.layers.sessionP50MS = median(wallMS)
	d.layers.overheadP50MS = median(overheadMS)
	d.overheadPct = 100 * (median(directMS) - median(wallMS)) / median(wallMS)
	return d, nil
}

func sumDelta(acc *explore.DeltaStats, d explore.DeltaStats) {
	acc.Changed += d.Changed
	acc.SeededLists += d.SeededLists
	acc.RescannedLists += d.RescannedLists
	acc.NegHits += d.NegHits
	acc.StoreHits += d.StoreHits
	acc.StoreMisses += d.StoreMisses
}

// traceServeDelta is serve-delta's traced run: traceDelta on 445.gobmk,
// then a cold storeless compile of the last resubmit (which must match the
// daemon), its commit replay, and an identical-function fold of the same
// bytes — a layer the daemon does not run, timed here as a probe.
func traceServeDelta(cfg config, p workload.Profile) (*result, error) {
	in, err := wire.Encode(workload.Build(p))
	if err != nil {
		return nil, err
	}
	r := &result{}
	d, err := traceDelta(cfg, in, r)
	if err != nil {
		return nil, err
	}
	tr := d.tr
	last := d.inputs[len(d.inputs)-1]
	cw := tr.window()
	c := compile(last, exploreOptions(1, tr), false, tr)
	tr.close(cw)
	r.op(append(c.problems, sameAsReference(d.results[len(d.results)-1], c)...))

	rw := tr.window()
	r.op(replay(last, c, false, tr))
	tr.close(rw)
	m, err := wire.Decode(last, wire.Options{Workers: 1})
	if err != nil {
		return nil, err
	}
	fw := tr.window()
	id := tr.begin("baseline.identical")
	folds := baseline.RunIdentical(m, tti.X86{})
	tr.end(id)
	tr.close(fw)
	if err := tr.write(filepath.Join(cfg.state, "spans-"+cfg.workload+".jsonl")); err != nil {
		return nil, err
	}

	r.note("%s: %d resubmits per traced stream; Workers=1", p.Name, passOps)
	r.add("wire.decode_ms", "ms", tr.totalMS("wire.decode", d.stream))
	r.add("wire.encode_ms", "ms", tr.totalMS("wire.encode", d.encode))
	r.add("ir.verify_ms", "ms", tr.totalMS("ir.verify", cw))
	r.add("baseline.identical_ms", "ms", tr.totalMS("baseline.identical", fw))
	r.add("baseline.folds", "count", float64(folds.MergeOps))
	r.addExploreLayers(d.counts, d.align, tr.totalMS("explore.session", d.stream))
	r.addReplayLayers(replayTimes{
		merge:  tr.totalMS("core.merge", rw),
		profit: tr.totalMS("core.profit", rw),
		commit: tr.totalMS("core.commit", rw),
	})
	r.addSessionLayers(d.layers)
	r.add("trace.overhead_pct", "%", d.overheadPct)
	return r, nil
}
