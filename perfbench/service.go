package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"coherencesim/internal/service"
	"coherencesim/internal/store"
)

// The service-mix workload: coherenced's service, built by service.New
// on a durable data dir and serving its real HTTP handler on loopback.
// nproc clients each send their own seeded job sequence in a closed
// loop over one connection: run jobs, quick experiment jobs (some
// warm-forked), jobs with breakdown or a metrics interval, repeats of
// their own completed specs, and specs a previous daemon left in the
// data dir.

// serviceUnitSeconds is roughly how long one unit of every client's
// jobs takes on the 2-core reference host; --seconds sets the number of
// units, and every run sends at least 100 jobs.
const serviceUnitSeconds = 2.45

// serviceConfig keeps simulations in flight at nproc: nproc concurrent
// jobs, each simulating on one worker.
func serviceConfig(h *harness, dataDir string) service.Config {
	return service.Config{Jobs: h.workers, SimWorkers: 1, DataDir: dataDir}
}

// daemon is a service serving its handler on a loopback listener.
type daemon struct {
	svc  *service.Service
	srv  *http.Server
	base string
	done chan error
}

func serve(svc *service.Service) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{svc: svc, srv: &http.Server{Handler: svc.Handler()}, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	go func() { d.done <- d.srv.Serve(ln) }()
	return d, nil
}

// close stops the listener, then the scheduler and the coordinator.
func (d *daemon) close() error {
	err := d.srv.Shutdown(context.Background())
	if serr := <-d.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	closeService(d.svc)
	return err
}

func closeService(svc *service.Service) {
	svc.Scheduler().Close()
	svc.Coordinator().Close()
}

// outcome is what a client saw for one job.
type outcome struct {
	job
	body   []byte // terminal document
	xcache string
	latMS  float64
	err    error
}

// client submits jobs over one keep-alive connection.
type client struct {
	h    *harness
	base string
	http *http.Client
}

func newClient(h *harness, base string) *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
	return &client{h: h, base: base, http: &http.Client{Transport: tr}}
}

// run submits one job and waits for its terminal document: a 200 is
// terminal already (a cache hit); a 202 is followed over the job's SSE
// stream, whose last status event is the terminal document.
func (c *client) run(j job) outcome {
	o := outcome{job: j}
	sp := c.h.tr.start("service.job", 0)
	defer c.h.tr.finish(sp)
	payload, err := json.Marshal(j.Spec)
	if err != nil {
		o.err = err
		return o
	}
	t := time.Now()
	sub := c.h.tr.start("service.submit", sp)
	resp, err := c.http.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(payload))
	if err != nil {
		c.h.tr.finish(sub)
		o.err = err
		return o
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	c.h.tr.finish(sub)
	if err != nil {
		o.err = err
		return o
	}
	o.xcache = resp.Header.Get("X-Cache")
	switch resp.StatusCode {
	case http.StatusOK:
		o.body = body
	case http.StatusAccepted:
		var st service.JobStatus
		if err := json.Unmarshal(body, &st); err != nil {
			o.err = fmt.Errorf("decode 202 body: %w", err)
			return o
		}
		aw := c.h.tr.start("service.await", sp)
		o.body, o.err = c.await(st.ID)
		c.h.tr.finish(aw)
	default:
		o.err = fmt.Errorf("POST /v1/jobs: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	o.latMS = float64(time.Since(t).Nanoseconds()) / 1e6
	return o
}

// await reads the job's SSE stream to its end and returns the data of
// its last status event.
func (c *client) await(id string) ([]byte, error) {
	resp, err := c.http.Get(c.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET events: %s", resp.Status)
	}
	r := bufio.NewReader(resp.Body)
	var event string
	var last []byte
	for {
		line, err := r.ReadBytes('\n')
		if len(line) > 0 {
			line = bytes.TrimRight(line, "\n")
			if ev, ok := bytes.CutPrefix(line, []byte("event: ")); ok {
				event = string(ev)
			} else if data, ok := bytes.CutPrefix(line, []byte("data: ")); ok && event == "status" {
				last = append([]byte(nil), data...)
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	if last == nil {
		return nil, fmt.Errorf("event stream for %s ended without a status", id)
	}
	return last, nil
}

// runClients runs every client's sequence concurrently and returns the
// outcomes per client.
func runClients(h *harness, base string, perClient [][]job) [][]outcome {
	out := make([][]outcome, len(perClient))
	var wg sync.WaitGroup
	for c := range perClient {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newClient(h, base)
			defer cl.http.CloseIdleConnections()
			for _, j := range perClient[c] {
				out[c] = append(out[c], cl.run(j))
			}
		}(c)
	}
	wg.Wait()
	return out
}

// previousDaemon runs a daemon on dataDir that completes the stored
// specs and shuts down, leaving their documents in the store. It
// returns the documents by job ID.
func previousDaemon(h *harness, cfg service.Config, stored []service.JobSpec) (map[string][]byte, error) {
	svc, err := service.New(cfg)
	if err != nil {
		return nil, err
	}
	d, err := serve(svc)
	if err != nil {
		closeService(svc)
		return nil, err
	}
	perClient := make([][]job, h.workers)
	for i, s := range stored {
		perClient[i%h.workers] = append(perClient[i%h.workers], job{Spec: s, Role: roleSim})
	}
	docs := map[string][]byte{}
	for _, outs := range runClients(h, d.base, perClient) {
		for _, o := range outs {
			if o.err != nil {
				d.close()
				return nil, fmt.Errorf("previous daemon: %w", o.err)
			}
			_, id, err := service.CanonicalHash(o.Spec)
			if err != nil {
				d.close()
				return nil, err
			}
			docs[id] = o.body
		}
	}
	return docs, d.close()
}

func runServiceMix(h *harness) error {
	clients := h.workers
	minUnits := int(math.Ceil(100 / float64(jobsPerUnit*clients)))
	units := max(minUnits, int(float64(h.seconds)/serviceUnitSeconds+0.5))
	perClient, stored := serviceMix(h.seed, clients, units)

	dataDir, err := os.MkdirTemp(h.workdir, "service-data-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dataDir)
	cfg := serviceConfig(h, dataDir)
	storedDocs, err := previousDaemon(h, cfg, stored)
	if err != nil {
		return err
	}

	// Set-up: reopen the service on the data dir the previous daemon
	// left, store scan and CRC checks included. The last repetition is
	// the one that serves.
	var svc *service.Service
	for rep := 0; rep < setupReps; rep++ {
		sp := h.tr.start("store.Open", 0)
		_, err := store.Open(dataDir, 0)
		h.tr.finish(sp)
		if err != nil {
			return err
		}
		if err := h.setupRep("service.New", func() (err error) {
			svc, err = service.New(cfg)
			return err
		}); err != nil {
			return err
		}
		if rep < setupReps-1 {
			closeService(svc)
		}
	}
	d, err := serve(svc)
	if err != nil {
		closeService(svc)
		return err
	}

	if err := h.beginTimed(); err != nil {
		d.close()
		return err
	}
	outs := runClients(h, d.base, perClient)
	if err := h.endTimed(); err != nil {
		d.close()
		return err
	}
	if err := d.close(); err != nil {
		return err
	}
	ctr := svc.Scheduler().Counters()
	st := svc.Scheduler().Store().Stats()
	h.simCycles = ctr.SimCycles
	h.layer["service.cache_hits"] = float64(ctr.CacheHits)
	h.layer["service.store_hits"] = float64(ctr.StoreHits)
	h.layer["service.simulated_jobs"] = float64(ctr.Submitted)
	h.layer["store.puts"] = float64(st.Writes)
	h.layer["store.bytes"] = float64(st.Bytes)
	h.counts["sim.cycles"] = ctr.SimCycles
	h.counts["service.cache_hits"] = ctr.CacheHits
	h.counts["service.store_hits"] = ctr.StoreHits
	h.counts["service.simulated_jobs"] = ctr.Submitted
	h.counts["store.puts"] = st.Writes
	h.counts["store.bytes"] = uint64(st.Bytes)

	checkServiceMix(h, outs, storedDocs)
	return nil
}

// checkServiceMix checks every document: a simulated one against
// service.Execute of the same spec run in-process, a hit against the
// first document for its spec.
func checkServiceMix(h *harness, outs [][]outcome, storedDocs map[string][]byte) {
	// Reference results for every distinct spec, nproc at a time.
	type ref struct {
		result []byte
		err    error
	}
	refs := map[string]*ref{}
	var specs []service.JobSpec
	var ids []string
	for _, co := range outs {
		for _, o := range co {
			sp := h.tr.start("service.CanonicalHash", 0)
			canon, id, err := service.CanonicalHash(o.Spec)
			h.tr.finish(sp)
			if err == nil && refs[id] == nil {
				refs[id] = &ref{}
				specs = append(specs, canon)
				ids = append(ids, id)
			}
		}
	}
	next := make(chan int, len(specs)) // every index is queued before the workers start
	for i := range specs {
		next <- i
	}
	close(next)
	var wg sync.WaitGroup
	for w := 0; w < h.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				sp := h.tr.start("service.Execute", 0)
				res, err := service.Execute(context.Background(), specs[i], 1, nil)
				h.tr.finish(sp)
				r := refs[ids[i]]
				if r.err = err; err == nil {
					r.result, r.err = json.Marshal(res)
				}
			}
		}()
	}
	wg.Wait()

	var want struct{ sims, hits, stores uint64 }
	for _, co := range outs {
		first := map[string][]byte{}
		for id, b := range storedDocs {
			first[id] = b
		}
		for _, o := range co {
			h.attempted++
			h.latMS = append(h.latMS, o.latMS)
			var refResult []byte
			if r := refs[hashOf(o.Spec)]; r != nil && r.err == nil {
				refResult = r.result
			}
			err := checkJob(o, first, refResult)
			switch o.Role {
			case roleSim:
				want.sims++
			case roleStore:
				want.stores++
				want.hits++
			case roleRepeat:
				want.hits++
			}
			if err != nil {
				h.failed++
				h.fail("%s job %+v: %v", o.Role, o.Spec, err)
				continue
			}
			h.ops++
		}
	}
	h.counts["jobs"] = uint64(h.attempted)
	if c := h.counts; c["service.simulated_jobs"] != want.sims || c["service.cache_hits"] != want.hits || c["service.store_hits"] != want.stores {
		h.fail("scheduler counted %d simulated, %d cache hits, %d store hits; the mix has %d, %d, %d",
			c["service.simulated_jobs"], c["service.cache_hits"], c["service.store_hits"], want.sims, want.hits, want.stores)
	}
}

func hashOf(s service.JobSpec) string {
	_, id, _ := service.CanonicalHash(s)
	return id
}

// checkJob checks one outcome. first maps job IDs to the first document
// seen for them (seeded with the previous daemon's); ref is the
// in-process Execute result for the spec.
func checkJob(o outcome, first map[string][]byte, ref []byte) error {
	if o.err != nil {
		return o.err
	}
	var doc service.JobStatus
	if err := json.Unmarshal(o.body, &doc); err != nil {
		return fmt.Errorf("decode document: %w", err)
	}
	id := hashOf(o.Spec)
	if doc.ID != id || doc.Status != service.StatusDone {
		return fmt.Errorf("document %s is %q, want %s done", doc.ID, doc.Status, id)
	}
	prev, seen := first[id]
	switch o.Role {
	case roleSim:
		if seen || o.xcache != "miss" {
			return fmt.Errorf("first submission answered with X-Cache %q", o.xcache)
		}
		first[id] = o.body
	case roleStore, roleRepeat:
		if !seen || o.xcache != "hit" {
			return fmt.Errorf("repeat answered with X-Cache %q (seen before: %v)", o.xcache, seen)
		}
		if !bytes.Equal(prev, o.body) {
			return fmt.Errorf("hit differs from the first document for its spec")
		}
	}
	if ref == nil {
		return fmt.Errorf("no reference result")
	}
	if !bytes.Equal(doc.Result, ref) {
		return fmt.Errorf("result differs from service.Execute of the same spec")
	}
	return nil
}
