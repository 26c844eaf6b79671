package main

import (
	"context"
	"fmt"
	"maps"
	"time"

	"repro/internal/closedloop"
	"repro/internal/fleet"
	"repro/internal/icegate"
	"repro/internal/icescope"
	"repro/internal/icestore"
	"repro/internal/icewire"
	"repro/internal/mednet"
	"repro/internal/sigproc"
	"repro/internal/sim"
)

// isolatedLayers times each layer's public calls on its own, serially,
// so a parent's self time is its time less its children's. Every call
// group is a span in the benchmark's trace. The replays are the same on
// every workload; payload is a table the window served, and storeDir a
// fresh directory for the store replay.
func isolatedLayers(m map[string]metric, cfg config, storeDir, payload string, parent icescope.Span) error {
	seeds := func(n int) []int64 {
		base := seedBase(cfg.seed, cfg.workload+"/layers")
		out := make([]int64, n)
		for i := range out {
			out[i] = base + int64(i)
		}
		return out
	}
	steps := []struct {
		name string
		fn   func(icescope.Span) error
	}{
		{"icegate", func(sp icescope.Span) error { return gateLayer(m, seeds(20), sp) }},
		{"icestore", func(sp icescope.Span) error { return storeLayer(m, storeDir, payload, sp) }},
		{"icemesh", func(sp icescope.Span) error { return meshLayer(m, seeds(5), sp) }},
		{"fleet", func(sp icescope.Span) error { return fleetLayer(m, seeds(1)[0], sp) }},
		{"cell", func(sp icescope.Span) error { return cellLayers(m, seeds(24), sp) }},
	}
	for _, s := range steps {
		sp := parent.Child("layer " + s.name)
		err := s.fn(sp)
		sp.End()
		if err != nil {
			return fmt.Errorf("%s layer: %w", s.name, err)
		}
	}
	return nil
}

// elapsedMS runs fn once and returns how long it took, in ms.
func elapsedMS(fn func() error) (float64, error) {
	t0 := time.Now()
	err := fn()
	return ms(time.Since(t0)), err
}

// timeIt runs fn n times and returns each call's duration in ms.
func timeIt(n int, fn func(i int) error) ([]float64, error) {
	out := make([]float64, n)
	for i := range out {
		var err error
		if out[i], err = elapsedMS(func() error { return fn(i) }); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// gateLayer measures the gateway on a serial stack (one executor, one
// worker): the cost of a job beyond running its cells, and a cache hit.
func gateLayer(m map[string]metric, seeds []int64, sp icescope.Span) error {
	st, err := startStack(stackConfig{executors: 1, workers: 1})
	if err != nil {
		return err
	}
	defer st.close()
	// Pairs of the same one-cell request, run directly and as a job; the
	// median difference is what the gateway adds.
	var extra []float64
	var req icegate.Request
	for _, s := range seeds {
		req = pcaRequest(s)
		req.Cells = 1
		spec, err := fleet.Build(req.Scenario, fleet.Params{Seed: req.Seed, Cells: req.Cells,
			Duration: sim.FromSeconds(req.DurationS)})
		if err != nil {
			return err
		}
		direct, err := elapsedMS(func() error { _, err := (fleet.Runner{Workers: 1}).Run(spec); return err })
		if err != nil {
			return err
		}
		c := sp.Child("job")
		job, err := elapsedMS(func() error { _, _, err := st.runJob(req); return err })
		c.End()
		if err != nil {
			return err
		}
		extra = append(extra, job-direct)
	}
	m["icegate.overhead_ms"] = metric{median(extra), "ms"}
	c := sp.Child("cached jobs")
	hits, err := timeIt(200, func(int) error {
		_, cached, err := st.runJob(req)
		if err == nil && !cached {
			err = fmt.Errorf("repeat of %s was not a cache hit", req.Key())
		}
		return err
	})
	c.End()
	if err != nil {
		return err
	}
	m["icegate.cached_ms_p50"] = metric{median(hits), "ms"}
	return nil
}

// storeLayer measures icestore directly: commits and reads of a
// workload-sized table, and the recovery scan of a 64-entry store (the
// size of ward-open's pool).
func storeLayer(m map[string]metric, dir, payload string, sp icescope.Span) error {
	if payload == "" {
		return fmt.Errorf("no table to store")
	}
	st, err := icestore.Open(icestore.Config{Dir: dir})
	if err != nil {
		return err
	}
	key := func(i int) string { return fmt.Sprintf("icebench/%d", i) }
	c := sp.Child("put")
	puts, err := timeIt(wardPool, func(i int) error { return st.Put(key(i), []byte(payload)) })
	c.End()
	if err != nil {
		return err
	}
	c = sp.Child("get")
	gets, err := timeIt(4*wardPool, func(i int) error {
		if got, ok := st.Get(key(i % wardPool)); !ok || string(got) != payload {
			return fmt.Errorf("get %s: entry missing or changed", key(i%wardPool))
		}
		return nil
	})
	c.End()
	if err != nil {
		return err
	}
	c = sp.Child("recover")
	opens, err := timeIt(5, func(int) error {
		s, err := icestore.Open(icestore.Config{Dir: dir})
		if err == nil && s.Stats().Entries != wardPool {
			err = fmt.Errorf("recovered %d entries, want %d", s.Stats().Entries, wardPool)
		}
		return err
	})
	c.End()
	if err != nil {
		return err
	}
	m["icestore.put_ms_p50"] = metric{median(puts), "ms"}
	m["icestore.get_ms_p50"] = metric{median(gets), "ms"}
	m["icestore.recover_ms"] = metric{median(opens), "ms"}
	return nil
}

// meshLayer measures icemesh directly: node join, and icu-mesh-shaped
// jobs through Coordinator.RunRange against a local runner with the same
// total workers.
func meshLayer(m map[string]metric, seeds []int64, sp icescope.Span) error {
	var joins []float64
	var cl *cluster
	for i := 0; i < 3; i++ {
		if cl != nil {
			cl.close()
		}
		c := sp.Child("join")
		var err error
		cl, err = startCluster()
		c.End()
		if err != nil {
			return err
		}
		joins = append(joins, ms(cl.join))
	}
	defer cl.close()
	coord := cl.coord

	before, err := parseProm(coord.MetricsText())
	if err != nil {
		return err
	}
	var meshMS, localMS []float64
	for _, s := range seeds {
		req := probeRequest(s)
		p := fleet.Params{Seed: req.Seed, Cells: req.Cells, Knobs: req.Knobs}
		spec, err := fleet.Build(req.Scenario, p)
		if err != nil {
			return err
		}
		c := sp.Child("RunRange")
		d, err := elapsedMS(func() error {
			return coord.RunRange(context.Background(), req.Scenario, p, 0, req.Cells, func(fleet.Result) {})
		})
		c.End()
		if err != nil {
			return err
		}
		meshMS = append(meshMS, d)
		c = sp.Child("local run")
		d, err = elapsedMS(func() error {
			_, err := (fleet.Runner{Workers: meshNodes * nodeWorkers}).Run(spec)
			return err
		})
		c.End()
		if err != nil {
			return err
		}
		localMS = append(localMS, d)
	}
	after, err := parseProm(coord.MetricsText())
	if err != nil {
		return err
	}
	d := after.delta(before)
	m["icemesh.join_ms"] = metric{median(joins), "ms"}
	m["icemesh.job_ms_p50"] = metric{median(meshMS), "ms"}
	m["icemesh.overhead_ms"] = metric{median(meshMS) - median(localMS), "ms"}
	m["icemesh.shards_per_job"] = metric{ratio(d["icemesh_shards_assigned_total"], d["icemesh_jobs_total"]), "count"}
	m["icemesh.shard_retries"] = metric{d["icemesh_shard_retries_total"], "count"}
	return nil
}

// fleetLayer measures the fleet runner directly on PCA cells.
func fleetLayer(m map[string]metric, seed int64, sp icescope.Span) error {
	p := fleet.Params{Seed: seed, Cells: 16, Duration: 30 * sim.Minute}
	spec, err := fleet.Build(fleet.ScenarioPCASupervised, p)
	if err != nil {
		return err
	}
	c := sp.Child("Build")
	buildNS := perCallNS(1000, func(n int) {
		for i := 0; i < n; i++ {
			_, _ = fleet.Build(fleet.ScenarioPCASupervised, p) // the same call just succeeded
		}
	})
	c.End()
	c = sp.Child("Run")
	runs, err := timeIt(3, func(int) error { _, err := (fleet.Runner{Workers: gateWorkers}).Run(spec); return err })
	c.End()
	if err != nil {
		return err
	}
	// One worker delivers cells one after another, so the gaps between
	// deliveries are per-cell times as the runner sees them.
	var gaps []float64
	c = sp.Child("RunContext")
	last := time.Now()
	_, err = (fleet.Runner{Workers: 1}).RunContext(context.Background(), spec, func(fleet.Result) {
		now := time.Now()
		gaps = append(gaps, ms(now.Sub(last)))
		last = now
	})
	c.End()
	if err != nil {
		return err
	}
	m["fleet.build_us"] = metric{buildNS / 1000, "us"}
	m["fleet.cells_per_s"] = metric{float64(p.Cells) / (median(runs) / 1000), "1/s"}
	m["fleet.cell_ms_p50"] = metric{median(gaps), "ms"}
	return nil
}

// pcaCellConfig is the cell of the pca-supervised scenario at the
// benchmark's 30-minute duration, built from closedloop's public
// defaults. cellLayers checks it against the fleet's own cell.
func pcaCellConfig(seed int64, d sim.Time) closedloop.PCAScenarioConfig {
	cfg := closedloop.DefaultPCAScenario(seed)
	cfg.Duration = d
	return cfg
}

// cellLayers times the closed-loop cells and, inside the PCA cell, the
// work of each layer below it: counts read from the cell's public
// counters, and per-unit costs from isolated loops over each layer's
// public calls. Count × unit cost ÷ cell time is the share of the cell a
// layer accounts for; what no layer accounts for is left unattributed.
func cellLayers(m map[string]metric, seeds []int64, sp icescope.Span) error {
	if err := checkPCAConfig(seeds[0]); err != nil {
		return err
	}
	var events, datagrams, frames, wireBytes, windows float64
	c := sp.Child("pca cells")
	pca, err := timeIt(12, func(i int) error {
		sc := closedloop.BuildPCAScenario(pcaCellConfig(seeds[i], 30*sim.Minute))
		if _, err := sc.Run(30 * sim.Minute); err != nil {
			return err
		}
		events += float64(sc.K.Executed())
		datagrams += float64(sc.Net.Stats().Sent)
		ws := sc.Wire.Stats()
		frames += float64(ws.Frames)
		wireBytes += float64(ws.Bytes)
		windows += float64(sc.Oximeter.Estimates)
		return nil
	})
	c.End()
	if err != nil {
		return err
	}
	n := float64(len(pca))
	events, datagrams, frames, wireBytes, windows = events/n, datagrams/n, frames/n, wireBytes/n, windows/n

	c = sp.Child("probe cells")
	probe, err := timeIt(len(seeds), func(i int) error {
		_, err := closedloop.BuildPCAScenario(pcaCellConfig(seeds[i], 2*sim.Minute)).Run(2 * sim.Minute)
		return err
	})
	c.End()
	if err != nil {
		return err
	}
	c = sp.Child("xray cells")
	xray, err := timeIt(len(seeds), func(i int) error {
		_, err := closedloop.RunXRaySyncCell(closedloop.DefaultXRaySyncScenario(seeds[i], closedloop.ProtocolStateSync))
		return err
	})
	c.End()
	if err != nil {
		return err
	}
	c = sp.Child("builds")
	pcaCfg := pcaCellConfig(seeds[0], 30*sim.Minute)
	buildPCA := perCallNS(40, func(n int) {
		for i := 0; i < n; i++ {
			closedloop.BuildPCAScenario(pcaCfg)
		}
	})
	xrayCfg := closedloop.DefaultXRaySyncScenario(seeds[0], closedloop.ProtocolStateSync)
	if _, err := closedloop.BuildXRaySyncScenario(xrayCfg); err != nil {
		return err
	}
	buildXRay := perCallNS(40, func(n int) {
		for i := 0; i < n; i++ {
			_, _ = closedloop.BuildXRaySyncScenario(xrayCfg) // the same config just built
		}
	})
	c.End()
	c = sp.Child("unit costs")
	eventNS, datagramNS, frameNS, synthUS, estimateUS := unitCosts()
	c.End()

	cellMS := median(pca)
	m["closedloop.cell_ms.pca"] = metric{cellMS, "ms"}
	m["closedloop.cell_ms.probe"] = metric{median(probe), "ms"}
	m["closedloop.cell_ms.xray"] = metric{median(xray), "ms"}
	m["closedloop.build_us.pca"] = metric{buildPCA / 1000, "us"}
	m["closedloop.build_us.xray"] = metric{buildXRay / 1000, "us"}
	m["sim.events_per_cell.pca"] = metric{events, "count"}
	m["sim.event_ns"] = metric{eventNS, "ns"}
	m["mednet.datagrams_per_cell.pca"] = metric{datagrams, "count"}
	m["mednet.datagram_ns"] = metric{datagramNS, "ns"}
	m["icewire.frames_per_cell.pca"] = metric{frames, "count"}
	m["icewire.bytes_per_cell.pca"] = metric{wireBytes, "bytes"}
	m["icewire.frame_ns"] = metric{frameNS, "ns"}
	m["sigproc.windows_per_cell.pca"] = metric{windows, "count"}
	m["sigproc.synth_us_per_window"] = metric{synthUS, "us"}
	m["sigproc.estimate_us_per_window"] = metric{estimateUS, "us"}

	cellNS := cellMS * 1e6
	shares := map[string]float64{
		"sim":     events * eventNS / cellNS,
		"mednet":  datagrams * datagramNS / cellNS,
		"icewire": frames * frameNS / cellNS,
		"sigproc": windows * (synthUS + estimateUS) * 1000 / cellNS,
	}
	rest := 1.0
	for layer, share := range shares {
		m[layer+".modelled_share.pca"] = metric{share, "ratio"}
		rest -= share
	}
	m["cell.unattributed_share.pca"] = metric{rest, "ratio"}
	return nil
}

// checkPCAConfig holds pcaCellConfig to the fleet's pca-supervised cell:
// both must produce the same clinical metrics for the same seed, or the
// per-layer accounting would describe some other cell.
func checkPCAConfig(seed int64) error {
	spec, err := fleet.Build(fleet.ScenarioPCASupervised, fleet.Params{Seed: seed, Cells: 1, Duration: 30 * sim.Minute})
	if err != nil {
		return err
	}
	res, err := (fleet.Runner{Workers: 1}).Run(spec)
	if err != nil {
		return err
	}
	got, err := closedloop.RunPCACell(pcaCellConfig(res[0].Cell.Seed, 30*sim.Minute))
	if err != nil {
		return err
	}
	for _, k := range []string{closedloop.MetricSimEvents, closedloop.MetricWireBytes, closedloop.MetricWireEncodeNS} {
		delete(got, k)
	}
	if !maps.Equal(got, map[string]float64(res[0].Metrics)) {
		return fmt.Errorf("the replayed PCA cell differs from the fleet's pca-supervised cell")
	}
	return nil
}

// perCallNS is the per-call time, in ns, of a call too short to time one
// at a time: the median over five batches of fn(n), each making n calls.
func perCallNS(n int, fn func(n int)) float64 {
	per := make([]float64, 5)
	for i := range per {
		t0 := time.Now()
		fn(n)
		per[i] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(per)
}

// unitCosts times one unit of work of each layer under the cell through
// its public calls: a kernel event scheduled and dispatched over a
// standing queue, a datagram sent and delivered, an ICE envelope encoded
// and decoded, and one 4-s analysis window of pleth samples synthesized
// and estimated.
func unitCosts() (eventNS, datagramNS, frameNS, synthUS, estimateUS float64) {
	eventNS = perCallNS(200_000, func(n int) {
		k := sim.NewKernel()
		noop := func(any) {}
		for i := 0; i < 1024; i++ {
			k.AtFunc(sim.Time(1)<<40+sim.Time(i), noop, nil)
		}
		for i := 0; i < n; i++ {
			k.AtFunc(k.Now()+sim.Millisecond, noop, nil)
			k.Step()
		}
	})

	datagramNS = perCallNS(50_000, func(n int) {
		k := sim.NewKernel()
		net := mednet.MustNew(k, sim.NewRNG(1), mednet.DefaultLink())
		net.Register("b", func(mednet.Message) {})
		payload := make([]byte, 64)
		for i := 0; i < n; i++ {
			net.Send("a", "b", "obs", payload)
			if err := k.Run(k.Now() + 10*sim.Millisecond); err != nil {
				panic(err) // a fresh kernel with one pending delivery cannot fail
			}
		}
	})

	codec := icewire.NewBinary()
	datum := icewire.Datum{Topic: "ox1/spo2", Value: 97.25, Valid: true, Quality: 0.875, Sampled: 4987 * sim.Millisecond}
	var buf []byte
	frameNS = perCallNS(100_000, func(n int) {
		var out icewire.Datum
		for i := 0; i < n; i++ {
			var err error
			if buf, err = codec.AppendEnvelope(buf[:0], icewire.MsgPublish, "ox1", "ice-manager", uint64(i), 5*sim.Second, &datum); err != nil {
				panic(err) // a fixed, valid datum always encodes
			}
			env, err := codec.Decode(buf)
			if err == nil {
				err = codec.DecodeBody(&env, &out)
			}
			if err != nil {
				panic(err) // a frame the codec just encoded always decodes
			}
		}
	})

	est := sigproc.NewEstimator(sigproc.DefaultEstimator())
	synth := sigproc.NewSynth(sigproc.DefaultSynth(), sim.NewRNG(1))
	dt := synth.SampleInterval()
	window := make([]sigproc.PlethSample, est.WindowSamples())
	var t sim.Time
	synthUS = perCallNS(1000, func(n int) {
		for w := 0; w < n; w++ {
			for i := range window {
				t += dt
				window[i] = synth.Next(t, dt, 72, 97)
			}
		}
	}) / 1000
	estimateUS = perCallNS(1000, func(n int) {
		for w := 0; w < n; w++ {
			for _, s := range window {
				est.Push(s)
			}
		}
	}) / 1000
	return eventNS, datagramNS, frameNS, synthUS, estimateUS
}
