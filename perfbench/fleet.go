package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"coherencesim/internal/experiments"
	"coherencesim/internal/fleet"
)

// The fleet-stream workload: a seeded stream of small warm-forked lock,
// barrier and reduction points, submitted round by round through
// fleet.Coordinator.RunPoints to nproc in-process workers over loopback
// HTTP.

// fleetRoundSeconds is roughly how long one round takes on the 2-core
// reference host; --seconds sets the number of rounds.
const fleetRoundSeconds = 0.017

// fleetRig is a coordinator serving the fleet API with its workers.
type fleetRig struct {
	coord  *fleet.Coordinator
	srv    *http.Server
	served chan error
	cancel context.CancelFunc
	wg     sync.WaitGroup
}

// startFleet starts a coordinator and nproc workers and returns once
// every worker has registered. Registration is observed as it happens,
// from the handler, with no polling.
func startFleet(h *harness) (*fleetRig, error) {
	rig := &fleetRig{coord: fleet.NewCoordinator(fleet.Config{}), served: make(chan error, 1)}
	mux := http.NewServeMux()
	rig.coord.Mount(mux)
	registered := make(chan struct{}, h.workers) // one per worker; extra re-registrations are dropped
	rig.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mux.ServeHTTP(w, r)
		if r.URL.Path == "/v1/fleet/register" {
			select {
			case registered <- struct{}{}:
			default:
			}
		}
	})}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		rig.coord.Close()
		return nil, err
	}
	go func() { rig.served <- rig.srv.Serve(ln) }()

	ctx, cancel := context.WithCancel(context.Background())
	rig.cancel = cancel
	sp := h.tr.start("fleet.register", 0)
	for i := 0; i < h.workers; i++ {
		w := fleet.NewWorker(fleet.WorkerConfig{Coordinator: "http://" + ln.Addr().String(), ID: fmt.Sprintf("bench-w%d", i)})
		rig.wg.Add(1)
		go func() {
			defer rig.wg.Done()
			_ = w.Run(ctx) // returns ctx.Err() once stopped
		}()
	}
	timeout := time.NewTimer(30 * time.Second)
	defer timeout.Stop()
	for i := 0; i < h.workers; i++ {
		select {
		case <-registered:
		case <-timeout.C:
			rig.stop()
			return nil, fmt.Errorf("only %d of %d workers registered", i, h.workers)
		}
	}
	h.tr.finish(sp)
	return rig, nil
}

// stop stops the workers, waits for them, then closes the coordinator
// and its listener.
func (r *fleetRig) stop() error {
	r.cancel()
	r.wg.Wait()
	r.coord.Close()
	err := r.srv.Shutdown(context.Background())
	if serr := <-r.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

func runFleetStream(h *harness) error {
	rounds := max(1, int(float64(h.seconds)/fleetRoundSeconds+0.5))
	stream := fleetStream(h.seed, rounds)

	// Set-up: start the coordinator and register the workers.
	var rig *fleetRig
	for rep := 0; rep < setupReps; rep++ {
		if err := h.setupRep("fleet.start", func() (err error) {
			rig, err = startFleet(h)
			return err
		}); err != nil {
			return err
		}
		if rep < setupReps-1 {
			if err := rig.stop(); err != nil {
				return err
			}
		}
	}

	results := make([][]experiments.PointResult, rounds)
	errs := make([]error, rounds)
	var mu sync.Mutex
	if err := h.beginTimed(); err != nil {
		rig.stop()
		return err
	}
	for i, round := range stream {
		sp := h.tr.start("fleet.RunPoints", 0)
		t := time.Now()
		results[i], errs[i] = rig.coord.RunPoints(context.Background(), round, func(int, experiments.PointResult) {
			ms := float64(time.Since(t).Nanoseconds()) / 1e6
			mu.Lock()
			h.latMS = append(h.latMS, ms)
			mu.Unlock()
		})
		h.tr.finish(sp)
	}
	if err := h.endTimed(); err != nil {
		rig.stop()
		return err
	}
	st := rig.coord.Stats()
	if err := rig.stop(); err != nil {
		return err
	}
	h.layer["fleet.dispatched"] = float64(st.Dispatched)
	h.layer["fleet.batches"] = float64(st.Batches)
	h.layer["fleet.stolen"] = float64(st.Stolen)
	h.layer["fleet.dup_completes"] = float64(st.DupCompletes)

	// Reference: every distinct point run serially through RunPoint.
	refs := map[string][]byte{}
	for _, pt := range fleetPoints() {
		sp := h.tr.start("experiments.RunPoint", 0)
		r, err := experiments.RunPoint(context.Background(), pt)
		h.tr.finish(sp)
		if err != nil {
			return fmt.Errorf("reference %s: %w", pt.Key(), err)
		}
		b, _ := json.Marshal(r) // PointResult is pure data
		refs[pt.Key()] = b
	}
	var events uint64
	for i, round := range stream {
		for k, pt := range round {
			h.attempted++
			if errs[i] != nil {
				h.failed++
				h.fail("round %d: %v", i, errs[i])
				continue
			}
			r := results[i][k]
			if !pointMatches(r, refs[pt.Key()]) {
				h.failed++
				h.fail("round %d point %s: result differs from experiments.RunPoint", i, pt.Label)
				continue
			}
			h.ops++
			h.simCycles += r.SimCycles
			events += r.SimEvents
		}
	}
	h.counts["points"] = uint64(h.ops)
	h.counts["sim.events"] = events
	h.counts["sim.cycles"] = h.simCycles

	if h.traced {
		// Fleet overhead: worker time beyond the same points run serially
		// with one shared warm-fork cache.
		forks := experiments.NewWarmForkCache()
		sp := h.tr.start("experiments.RunPointForked.serial", 0)
		t := time.Now()
		for _, round := range stream {
			for _, pt := range round {
				if _, err := experiments.RunPointForked(context.Background(), pt, forks); err != nil {
					return err
				}
			}
		}
		serial := time.Since(t).Seconds()
		h.tr.finish(sp)
		h.layer["fleet.overhead_s"] = h.wall*float64(h.workers) - serial
	}
	return nil
}

// pointMatches reports whether a point result encodes byte-identically
// to the reference encoding.
func pointMatches(r experiments.PointResult, ref []byte) bool {
	b, err := json.Marshal(r)
	return err == nil && bytes.Equal(b, ref)
}
