package main

import (
	"fmt"
	"math/rand/v2"

	"coherencesim/internal/experiments"
	"coherencesim/internal/proto"
	"coherencesim/internal/service"
)

// Input generation. One generator, seeded by --seed, makes every
// workload's inputs. The seed orders and assigns a fixed multiset of
// work, so a run's simulated work counts do not depend on it: two runs
// differ in the order the program sees the same inputs, never in how
// much it has to simulate.

func newRand(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 0x636f686572656e63)) }

// catalogOrder is the order the figures workload renders the catalog.
func catalogOrder(seed uint64, n int) []int { return newRand(seed).Perm(n) }

// Job roles in the service mix.
const (
	roleSim    = "sim"    // first submission of a spec: simulated
	roleStore  = "store"  // first submission of a spec a previous daemon stored
	roleRepeat = "repeat" // resubmission of a spec this client already completed
)

// job is one submission of the service mix.
type job struct {
	Spec service.JobSpec `json:"spec"`
	Role string          `json:"role"`
}

// runTemplates are the kind=run constructs; every one runs under every
// protocol.
var runTemplates = []struct {
	run, algo string
	iters     int // iteration override: total acquires per processor (locks) or episodes
}{
	{"lock", "tk", 12}, {"lock", "mcs", 12}, {"lock", "ucmcs", 12},
	{"barrier", "cb", 24}, {"barrier", "db", 24}, {"barrier", "tb", 24},
	{"reduction", "sr", 24}, {"reduction", "pr", 24},
}

var runProtocols = []string{"WI", "PU", "CU"}
var runProcs = []int{4, 8, 16}

// expTemplates are the quick-scale kind=experiment jobs of one unit.
var expTemplates = []struct {
	exp             string
	warm, breakdown bool
	interval        uint64 // base metrics interval (0 = default)
}{
	{"fig8", false, false, 0},
	{"fig9", false, true, 0},
	{"fig11", true, false, 0},
	{"fig12", false, false, 2000},
	{"fig14", true, true, 0},
	{"fig15", false, false, 0},
	{"fig13", false, false, 5000},
	{"fig16", true, false, 0},
}

// Per unit and client: 24 simulated run jobs, 8 simulated experiment
// jobs, storeRuns+1 store-answered jobs and repeatsPerUnit repeats.
const (
	storeRuns      = 4
	repeatsPerUnit = 7
	jobsPerUnit    = 24 + 8 + storeRuns + 1 + repeatsPerUnit
)

// salt makes a client's specs distinct from every other client's and
// unit's by shifting the metrics sampling interval a few cycles, which
// changes the spec's content hash but not the simulation's cost. No
// spec is shared between clients, so timing never decides whether a
// submission hits the cache, joins a running job or simulates.
func salt(base uint64, client, clients, unit int) uint64 {
	if base == 0 {
		base = 10000
	}
	return base + uint64(10*(client+clients*unit))
}

// serviceMix generates each client's closed-loop job sequence and the
// specs a previous daemon leaves in the data dir.
func serviceMix(seed uint64, clients, units int) (perClient [][]job, stored []service.JobSpec) {
	r := newRand(seed)
	perClient = make([][]job, clients)
	for c := 0; c < clients; c++ {
		var sims, stores []service.JobSpec
		for u := 0; u < units; u++ {
			for i, t := range runTemplates {
				for k, pr := range runProtocols {
					procs := runProcs[(i+k+u)%len(runProcs)]
					s := service.JobSpec{
						Kind: "run", Run: t.run, Algo: t.algo, Protocol: pr, Procs: procs,
						Iterations: t.iters,
					}
					if t.run == "lock" {
						s.Iterations = t.iters * procs
					}
					switch (i*3 + k) % 4 {
					case 1:
						s.Breakdown = true
					case 2:
						s.MetricsInterval = salt(2000, c, clients, u)
					}
					if s.MetricsInterval == 0 {
						s.MetricsInterval = salt(0, c, clients, u)
					}
					sims = append(sims, s)
				}
			}
			for i, t := range expTemplates {
				format := "table"
				if (c+u+i)%2 == 1 && t.exp != "fig8" {
					format = "csv"
				}
				sims = append(sims, service.JobSpec{
					Kind: "experiment", Experiment: t.exp, Scale: "quick", Format: format,
					WarmFork: t.warm, Breakdown: t.breakdown,
					MetricsInterval: salt(t.interval, c, clients, u),
				})
			}
			for i := 0; i < storeRuns; i++ {
				t := runTemplates[(i*3+u)%len(runTemplates)]
				s := service.JobSpec{
					Kind: "run", Run: t.run, Algo: t.algo, Protocol: runProtocols[i%3], Procs: 8,
					Iterations: t.iters, MetricsInterval: salt(7000, c, clients, u),
				}
				if t.run == "lock" {
					s.Iterations = t.iters * 8
				}
				stores = append(stores, s)
			}
			stores = append(stores, service.JobSpec{
				Kind: "experiment", Experiment: "fig10", Scale: "quick",
				MetricsInterval: salt(7000, c, clients, u),
			})
		}
		stored = append(stored, stores...)

		seq := make([]job, 0, units*jobsPerUnit)
		for _, s := range sims {
			seq = append(seq, job{Spec: s, Role: roleSim})
		}
		for _, s := range stores {
			seq = append(seq, job{Spec: s, Role: roleStore})
		}
		r.Shuffle(len(seq), func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
		// Repeats: per unit, repeatsPerUnit-1 simulated specs and one
		// stored spec, each resubmitted somewhere after its first
		// submission.
		simIdx, storeIdx := r.Perm(len(sims)), r.Perm(len(stores))
		var again []service.JobSpec
		for u := 0; u < units; u++ {
			for k := 0; k < repeatsPerUnit-1; k++ {
				again = append(again, sims[simIdx[u*(repeatsPerUnit-1)+k]])
			}
			again = append(again, stores[storeIdx[u]])
		}
		for _, s := range again {
			first := 0
			for i, j := range seq {
				if j.Spec == s {
					first = i
					break
				}
			}
			at := first + 1 + r.IntN(len(seq)-first)
			seq = append(seq[:at], append([]job{{Spec: s, Role: roleRepeat}}, seq[at:]...)...)
		}
		perClient[c] = seq
	}
	return perClient, stored
}

// Fleet stream: every lock, barrier and reduction construct under every
// protocol, warm-forked and small, so dispatch, batching, stealing and
// checkpoint reuse are a large share of the run.

const (
	fleetProcs      = 4
	fleetLockIters  = 8 * fleetProcs // total acquires
	fleetEpisodes   = 16
	fleetPointsEach = 4 // copies of each point per round
)

// fleetPoints returns the distinct points of the stream.
func fleetPoints() []experiments.Point {
	var pts []experiments.Point
	add := func(family string, kinds, iters int) {
		for k := 0; k < kinds; k++ {
			for pr := 0; pr < 3; pr++ {
				pts = append(pts, experiments.Point{
					Family: family, Kind: k, Protocol: proto.Protocol(pr),
					Procs: fleetProcs, Iterations: iters, WarmFork: true,
				})
			}
		}
	}
	add(experiments.FamilyLock, 3, fleetLockIters)
	add(experiments.FamilyBarrier, 3, fleetEpisodes)
	add(experiments.FamilyReduction, 2, fleetEpisodes)
	return pts
}

// fleetStream returns rounds rounds; each holds fleetPointsEach copies
// of every distinct point in a seeded order.
func fleetStream(seed uint64, rounds int) [][]experiments.Point {
	r := newRand(seed)
	base := fleetPoints()
	out := make([][]experiments.Point, rounds)
	for i := range out {
		var round []experiments.Point
		for c := 0; c < fleetPointsEach; c++ {
			for j, pt := range base {
				pt.Label = fmt.Sprintf("r%d/p%d/c%d", i, j, c)
				round = append(round, pt)
			}
		}
		r.Shuffle(len(round), func(a, b int) { round[a], round[b] = round[b], round[a] })
		out[i] = round
	}
	return out
}
