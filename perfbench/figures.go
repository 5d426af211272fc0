package main

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"coherencesim/internal/experiments"
	"coherencesim/internal/machine"
	"coherencesim/internal/proto"
	"coherencesim/internal/runner"
)

// The figures workload: every catalog experiment, what
// `coherencesim -experiment all -quick` prints, rendered in-process
// through experiments on a runner pool of nproc workers. No service, no
// fleet, no warm forking.

// figureRoundSeconds is roughly how long one catalog pass takes on the
// 2-core reference host; --seconds / figureRoundSeconds sets the number
// of passes.
const figureRoundSeconds = 4.1

// render runs one catalog entry the way the CLI prints it.
func render(e experiments.CatalogEntry, o experiments.Options) string {
	var b strings.Builder
	for _, t := range e.Tables(o) {
		fmt.Fprintln(&b, t)
	}
	return b.String()
}

// machineSizes are the machine sizes the quick-scale sweeps build.
func machineSizes(o experiments.Options) []int {
	sizes := append([]int(nil), o.Procs...)
	for _, p := range sizes {
		if p == o.TrafficProcs {
			return sizes
		}
	}
	return append(sizes, o.TrafficProcs)
}

func runFigures(h *harness) error {
	catalog := experiments.Catalog()
	order := catalogOrder(h.seed, len(catalog))
	rounds := max(1, int(float64(h.seconds)/figureRoundSeconds+0.5))
	o := experiments.Quick()

	// Set-up: acquire the machines the sweeps run on, nproc of each
	// size, from an empty pool. The last repetition releases them, so
	// the timed phase starts with a warm pool.
	for rep := 0; rep < setupReps; rep++ {
		var ms []*machine.Machine
		if err := h.setupRep("machine.Acquire", func() error {
			for _, p := range machineSizes(o) {
				for w := 0; w < h.workers; w++ {
					ms = append(ms, machine.Acquire(machine.DefaultConfig(proto.WI, p)))
				}
			}
			return nil
		}); err != nil {
			return err
		}
		if rep == setupReps-1 {
			for _, m := range ms {
				m.Release()
			}
		}
	}

	pool := runner.New(h.workers)
	var busy time.Duration
	var cycles uint64
	pool.SetProgress(func(s runner.Snapshot) { // serialized by the pool
		busy += s.JobTime
		cycles = s.SimCycles
	})
	o.Runner = pool

	outs := make([][]string, rounds)
	if err := h.beginTimed(); err != nil {
		return err
	}
	// An operation is one experiment; its latency is a whole pass, the
	// time to regenerate every figure.
	for r := range outs {
		outs[r] = make([]string, len(catalog))
		t := time.Now()
		for _, i := range order {
			sp := h.tr.start("experiments.Tables/"+catalog[i].Name, 0)
			outs[r][i] = render(catalog[i], o)
			h.tr.finish(sp)
			h.ops++
		}
		h.latMS = append(h.latMS, float64(time.Since(t).Nanoseconds())/1e6)
	}
	if err := h.endTimed(); err != nil {
		return err
	}
	h.simCycles = cycles
	h.layer["runner.busy_s"] = busy.Seconds()
	h.layer["runner.idle_s"] = h.wall*float64(h.workers) - busy.Seconds()

	// Untimed reference: every entry rendered again with a nil runner
	// (serial, inline), its sweep points run one by one through
	// experiments.RunPoint. Entries render on nproc goroutines.
	ref, events, pointErrs := renderReference(h, catalog)
	h.counts["sim.events"] = events * uint64(rounds)
	h.counts["sim.cycles"] = cycles
	h.counts["experiments"] = uint64(h.ops)

	byName := map[string]int{}
	for i, e := range catalog {
		byName[e.Name] = i
	}
	for r := range outs {
		for i, e := range catalog {
			h.attempted++
			err := pointErrs[i]
			if err == nil && outs[r][i] != ref[i] {
				err = fmt.Errorf("output differs from the nil-runner render")
			}
			if err == nil {
				err = checkFigure(e.Name, outs[r][i], func(name string) string { return outs[r][byName[name]] })
			}
			if err != nil {
				h.failed++
				h.fail("round %d %s: %v", r, e.Name, err)
			}
		}
	}
	return nil
}

// renderReference renders every catalog entry with a nil runner, its
// decomposed sweeps dispatched serially through experiments.RunPoint.
// It returns the outputs, the simulated events of the point sweeps,
// and per entry the first point that broke a protocol property.
func renderReference(h *harness, catalog []experiments.CatalogEntry) ([]string, uint64, []error) {
	out := make([]string, len(catalog))
	errs := make([]error, len(catalog))
	var mu sync.Mutex
	var events uint64
	next := make(chan int, len(catalog)) // every index is queued before the workers start
	// extlocks is by far the longest entry: start it first.
	for i, e := range catalog {
		if e.Name == "extlocks" {
			next <- i
		}
	}
	for i, e := range catalog {
		if e.Name != "extlocks" {
			next <- i
		}
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < h.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				var perr error
				var ev uint64
				o := experiments.Quick()
				o.Dispatch = func(pts []experiments.Point) []experiments.PointResult {
					res := make([]experiments.PointResult, len(pts))
					for k, pt := range pts {
						sp := h.tr.start("experiments.RunPoint", 0)
						r, err := experiments.RunPoint(context.Background(), pt)
						h.tr.finish(sp)
						if err != nil && perr == nil {
							perr = err
						}
						// Invalidate protocols never send updates.
						if pt.Protocol == proto.WI && r.Updates.Total() != 0 && perr == nil {
							perr = fmt.Errorf("WI point %s sent %d update messages", pt.Label, r.Updates.Total())
						}
						ev += r.SimEvents
						res[k] = r
					}
					return res
				}
				sp := h.tr.start("experiments.Tables.reference/"+catalog[i].Name, 0)
				s := render(catalog[i], o)
				h.tr.finish(sp)
				mu.Lock()
				out[i], errs[i] = s, perr
				events += ev
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out, events, errs
}
