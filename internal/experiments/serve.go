package experiments

// The serve experiment measures the warm merge-session daemon end to end:
// an in-process fmsa-serve instance takes a corpus cold, then a 1%-edited
// resubmission warm, and the wall-clock ratio is the payoff of session
// reuse (the PR 9 tentpole). Alongside the speedup gate it checks the
// properties the daemon sells: warm results bit-identical to cold for any
// worker count, FIFO latency under a resubmission stream, bounded
// admission (Busy under burst) and graceful drain (admitted work finishes
// during shutdown).

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"fmsa/internal/explore"
	"fmsa/internal/ir"
	"fmsa/internal/serve"
	"fmsa/internal/tti"
	"fmsa/internal/wire"
	"fmsa/internal/workload"
)

// ServeConfig parameterizes the serve experiment.
type ServeConfig struct {
	// Threshold is the exploration threshold t (<= 0 selects 1).
	Threshold int
	// Workers is the per-merge worker count for the timing phases (<= 0
	// selects 1 — wall-clock gates are calibrated serial).
	Workers int
	// DeltaFrac is the fraction of functions edited between submissions
	// (<= 0 selects 0.01 — the 1% delta the speedup gate is defined on).
	DeltaFrac float64
	// Stream is the warm resubmission count for the latency phase (<= 0
	// selects 5).
	Stream int
	// Quick shrinks the corpus for a fast smoke run and skips the 5x
	// speedup gate (the corpus is too small for the ratio to be stable).
	Quick bool
	// MinSpeedup is the warm-speedup floor the full run gates on (<= 0
	// selects 5.0).
	MinSpeedup float64
}

// ServeResult is one JSON line of the serve experiment (BENCH_PR9.json).
type ServeResult struct {
	// Phase: "speedup", "identity", "latency", "backpressure" or "drain".
	Phase  string `json:"phase"`
	Corpus string `json:"corpus"`
	Funcs  int    `json:"funcs"`
	// Workers is the per-merge worker count of this phase's sessions.
	Workers int `json:"workers"`
	// DeltaFrac is the edited-function fraction between submissions.
	DeltaFrac float64 `json:"delta_frac,omitempty"`
	// ColdNS and WarmNS are server-side merge wall clocks for a cold
	// session and a warm resubmission of the same module; Speedup is their
	// ratio (speedup and identity phases).
	ColdNS  int64   `json:"cold_ns,omitempty"`
	WarmNS  int64   `json:"warm_ns,omitempty"`
	Speedup float64 `json:"speedup,omitempty"`
	// BitIdentical reports that warm and cold produced the same merge
	// sequence (records digest plus counts and final size).
	BitIdentical bool `json:"bit_identical"`
	// Submits counts completed submissions in this phase; Busy counts
	// admission refusals (backpressure phase).
	Submits int `json:"submits,omitempty"`
	Busy    int `json:"busy,omitempty"`
	// Client-observed latency percentiles and throughput for the warm
	// resubmission stream (latency phase).
	P50NS            int64   `json:"p50_ns,omitempty"`
	P95NS            int64   `json:"p95_ns,omitempty"`
	P99NS            int64   `json:"p99_ns,omitempty"`
	ThroughputPerSec float64 `json:"throughput_per_sec,omitempty"`
	// Changed/Unchanged echo the warm submit's delta classification.
	Changed   int `json:"changed,omitempty"`
	Unchanged int `json:"unchanged,omitempty"`
}

// serveCorpus is one prepared corpus: the module (mutated in place between
// encodes) plus its current fmir bytes.
type serveCorpus struct {
	name  string
	m     *ir.Module
	funcs int
}

func buildServeCorpus(p workload.Profile) *serveCorpus {
	m := workload.Build(p)
	return &serveCorpus{name: p.Name, m: m, funcs: len(m.Definitions())}
}

func (c *serveCorpus) encode() ([]byte, error) { return wire.Encode(c.m) }

// mutate edits frac of the corpus's functions in place — each selected
// function gets one integer-constant operand bumped, which changes its
// stable hash (and so diffs as "changed") without perturbing anything
// else. salt rotates which functions are selected so successive deltas
// touch different neighborhoods, like successive edits in a real corpus
// would. Returns how many functions were actually edited.
func (c *serveCorpus) mutate(frac float64, salt int) int {
	defs := c.m.Definitions()
	want := int(float64(len(defs)) * frac)
	if want < 1 {
		want = 1
	}
	edited := 0
	for off := 0; off < len(defs) && edited < want; off++ {
		f := defs[(off+salt*want)%len(defs)]
		if mutateOneConst(f, int64(salt)+1) {
			edited++
		}
	}
	return edited
}

// mutateOneConst bumps the first integer-constant operand found in f.
func mutateOneConst(f *ir.Func, by int64) bool {
	done := false
	f.Insts(func(in *ir.Inst) {
		if done {
			return
		}
		for i := 0; i < in.NumOperands(); i++ {
			if ci, ok := in.Operand(i).(*ir.ConstInt); ok {
				in.SetOperand(i, ir.NewConstInt(ci.Type(), ci.V+by))
				done = true
				return
			}
		}
	})
	return done
}

// serveHarness wraps one in-process server plus a client connection.
type serveHarness struct {
	srv *serve.Server
	cl  *serve.Client
}

func startServe(opts explore.Options, maxInFlight int) (*serveHarness, error) {
	srv := serve.New(serve.Config{Explore: opts, MaxInFlight: maxInFlight})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go srv.Serve(ln)
	cl, err := serve.Dial(ln.Addr().String())
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, err
	}
	return &serveHarness{srv: srv, cl: cl}, nil
}

func (h *serveHarness) stop() {
	h.cl.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	h.srv.Shutdown(ctx)
}

func (h *serveHarness) submit(sess uint64, module []byte) (serve.Result, error) {
	p, err := h.cl.Submit(sess, module)
	if err != nil {
		return serve.Result{}, err
	}
	return p.Wait()
}

func sameMerges(a, b serve.Result) bool {
	return a.RecordsDigest == b.RecordsDigest && a.MergeOps == b.MergeOps &&
		a.SizeAfter == b.SizeAfter && a.CandidatesEvaluated == b.CandidatesEvaluated
}

// Serve runs the full experiment and returns one result row per phase (the
// identity phase yields one row per worker count). profiles supplies the
// corpus pool; the largest is measured.
func Serve(profiles []workload.Profile, tgt tti.Target, cfg ServeConfig) ([]ServeResult, error) {
	if cfg.Threshold <= 0 {
		cfg.Threshold = 1
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.DeltaFrac <= 0 {
		cfg.DeltaFrac = 0.01
	}
	if cfg.Stream <= 0 {
		cfg.Stream = 5
	}
	if cfg.MinSpeedup <= 0 {
		cfg.MinSpeedup = 5.0
	}

	// The timing corpus is the largest profile on offer; quick mode shrinks
	// it so the whole experiment smokes in seconds.
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
		// Identity sweeps three worker counts x two sessions; the largest
		// corpus under a quarter of the timing corpus keeps that affordable
		// without weakening the property.
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

	baseOpts := explore.DefaultOptions()
	baseOpts.Threshold = cfg.Threshold
	baseOpts.Target = tgt

	var rows []ServeResult

	// Phase 1+2: speedup on the big corpus, then warm/cold identity across
	// worker counts on the identity corpus.
	timing := baseOpts
	timing.Workers = cfg.Workers
	h, err := startServe(timing, 4)
	if err != nil {
		return nil, err
	}
	corpus := buildServeCorpus(big)
	base, err := corpus.encode()
	if err != nil {
		h.stop()
		return nil, err
	}
	warmSess, err := h.cl.Open(nil)
	if err != nil {
		h.stop()
		return nil, err
	}
	if _, err := h.submit(warmSess, base); err != nil {
		h.stop()
		return nil, err
	}
	corpus.mutate(cfg.DeltaFrac, 1)
	delta, err := corpus.encode()
	if err != nil {
		h.stop()
		return nil, err
	}
	warmRes, err := h.submit(warmSess, delta)
	if err != nil {
		h.stop()
		return nil, err
	}
	coldSess, err := h.cl.Open(nil)
	if err != nil {
		h.stop()
		return nil, err
	}
	coldRes, err := h.submit(coldSess, delta)
	if err != nil {
		h.stop()
		return nil, err
	}
	identical := sameMerges(warmRes, coldRes)
	speedup := float64(coldRes.WallNS) / float64(warmRes.WallNS)
	rows = append(rows, ServeResult{
		Phase: "speedup", Corpus: big.Name, Funcs: corpus.funcs, Workers: cfg.Workers,
		DeltaFrac: cfg.DeltaFrac, ColdNS: coldRes.WallNS, WarmNS: warmRes.WallNS,
		Speedup: speedup, BitIdentical: identical,
		Changed: warmRes.Delta.Changed, Unchanged: warmRes.Delta.Unchanged,
	})
	if !identical {
		h.stop()
		return rows, fmt.Errorf("serve: warm resubmit diverged from cold session on %s", big.Name)
	}
	if !warmRes.Delta.Warm || warmRes.Delta.Unchanged == 0 {
		h.stop()
		return rows, fmt.Errorf("serve: warm resubmit did not classify as warm: %+v", warmRes.Delta)
	}

	// Phase 3: latency/throughput of a warm resubmission stream, each round
	// editing another DeltaFrac of the corpus.
	lat := make([]time.Duration, 0, cfg.Stream)
	streamStart := time.Now()
	for i := 0; i < cfg.Stream; i++ {
		corpus.mutate(cfg.DeltaFrac, 2+i)
		mod, err := corpus.encode()
		if err != nil {
			h.stop()
			return rows, err
		}
		t0 := time.Now()
		res, err := h.submit(warmSess, mod)
		if err != nil {
			h.stop()
			return rows, err
		}
		lat = append(lat, time.Since(t0))
		if !res.Delta.Warm {
			h.stop()
			return rows, fmt.Errorf("serve: stream round %d ran cold: %+v", i, res.Delta)
		}
	}
	streamWall := time.Since(streamStart)
	p50, p95, p99 := latencyPercentiles(lat)
	rows = append(rows, ServeResult{
		Phase: "latency", Corpus: big.Name, Funcs: corpus.funcs, Workers: cfg.Workers,
		DeltaFrac: cfg.DeltaFrac, Submits: cfg.Stream, BitIdentical: true,
		P50NS: p50, P95NS: p95, P99NS: p99,
		ThroughputPerSec: float64(cfg.Stream) / streamWall.Seconds(),
	})
	h.stop()

	// Phase 4: identity across worker counts — warm and cold sessions must
	// agree for every Workers value, and with each other.
	idCorpus := buildServeCorpus(idProfile)
	idBase, err := idCorpus.encode()
	if err != nil {
		return rows, err
	}
	idCorpus.mutate(cfg.DeltaFrac, 1)
	idDelta, err := idCorpus.encode()
	if err != nil {
		return rows, err
	}
	var ref serve.Result
	for i, workers := range []int{1, 2, 8} {
		opts := baseOpts
		opts.Workers = workers
		hw, err := startServe(opts, 4)
		if err != nil {
			return rows, err
		}
		ws, err := hw.cl.Open(nil)
		if err != nil {
			hw.stop()
			return rows, err
		}
		if _, err := hw.submit(ws, idBase); err != nil {
			hw.stop()
			return rows, err
		}
		warm, err := hw.submit(ws, idDelta)
		if err != nil {
			hw.stop()
			return rows, err
		}
		cs, err := hw.cl.Open(nil)
		if err != nil {
			hw.stop()
			return rows, err
		}
		cold, err := hw.submit(cs, idDelta)
		hw.stop()
		if err != nil {
			return rows, err
		}
		ok := sameMerges(warm, cold)
		if i == 0 {
			ref = warm
		} else {
			ok = ok && sameMerges(warm, ref)
		}
		rows = append(rows, ServeResult{
			Phase: "identity", Corpus: idProfile.Name, Funcs: idCorpus.funcs,
			Workers: workers, DeltaFrac: cfg.DeltaFrac,
			ColdNS: cold.WallNS, WarmNS: warm.WallNS, BitIdentical: ok,
			Changed: warm.Delta.Changed, Unchanged: warm.Delta.Unchanged,
		})
		if !ok {
			return rows, fmt.Errorf("serve: warm/cold identity broken at workers=%d on %s", workers, idProfile.Name)
		}
	}

	// Phase 5: backpressure. A 1-slot server holding the big corpus must
	// refuse a burst of small submits with Busy, and the refused client
	// retries successfully once the slot frees.
	bp := baseOpts
	bp.Workers = cfg.Workers
	hb, err := startServe(bp, 1)
	if err != nil {
		return rows, err
	}
	bs, err := hb.cl.Open(nil)
	if err != nil {
		hb.stop()
		return rows, err
	}
	holder, err := hb.cl.Submit(bs, idBase)
	if err != nil {
		hb.stop()
		return rows, err
	}
	busy, accepted := 0, 0
	for i := 0; i < 16 && busy == 0; i++ {
		p, err := hb.cl.Submit(bs, idDelta)
		if errors.Is(err, serve.ErrBusy) {
			busy++
			break
		}
		if err != nil {
			hb.stop()
			return rows, err
		}
		accepted++
		if _, err := p.Wait(); err != nil {
			hb.stop()
			return rows, err
		}
	}
	if _, err := holder.Wait(); err != nil {
		hb.stop()
		return rows, err
	}
	// Retry after drain must succeed.
	retry, err := hb.submit(bs, idDelta)
	hb.stop()
	if err != nil {
		return rows, err
	}
	rows = append(rows, ServeResult{
		Phase: "backpressure", Corpus: idProfile.Name, Funcs: idCorpus.funcs,
		Workers: cfg.Workers, Submits: accepted + 2, Busy: busy,
		BitIdentical: true, Changed: retry.Delta.Changed,
	})
	if busy == 0 {
		return rows, errors.New("serve: burst past a 1-slot admission bound drew no Busy")
	}

	// Phase 6: graceful drain — an admitted submit survives Shutdown.
	hd, err := startServe(bp, 2)
	if err != nil {
		return rows, err
	}
	ds, err := hd.cl.Open(nil)
	if err != nil {
		hd.stop()
		return rows, err
	}
	pend, err := hd.cl.Submit(ds, idBase)
	if err != nil {
		hd.stop()
		return rows, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	drained := make(chan error, 1)
	go func() { drained <- hd.srv.Shutdown(ctx) }()
	res, err := pend.Wait()
	if err != nil {
		cancel()
		return rows, fmt.Errorf("serve: admitted submit lost during drain: %w", err)
	}
	err = <-drained
	cancel()
	hd.cl.Close()
	if err != nil {
		return rows, fmt.Errorf("serve: drain incomplete: %w", err)
	}
	rows = append(rows, ServeResult{
		Phase: "drain", Corpus: idProfile.Name, Funcs: idCorpus.funcs,
		Workers: cfg.Workers, Submits: 1, BitIdentical: true, Changed: res.Delta.Changed,
	})

	if !cfg.Quick && speedup < cfg.MinSpeedup {
		return rows, fmt.Errorf("serve: warm speedup %.2fx below the %.1fx floor (cold %.2fs, warm %.2fs)",
			speedup, cfg.MinSpeedup, float64(coldRes.WallNS)/1e9, float64(warmRes.WallNS)/1e9)
	}
	return rows, nil
}
