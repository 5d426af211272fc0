package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"coherencesim/internal/experiments"
	"coherencesim/internal/service"
)

func TestSameSeedSameInputs(t *testing.T) {
	a, as := serviceMix(7, 2, 2)
	b, bs := serviceMix(7, 2, 2)
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(as, bs) {
		t.Fatal("serviceMix differs for one seed")
	}
	if !reflect.DeepEqual(fleetStream(7, 3), fleetStream(7, 3)) {
		t.Fatal("fleetStream differs for one seed")
	}
	if !reflect.DeepEqual(catalogOrder(7, 15), catalogOrder(7, 15)) {
		t.Fatal("catalogOrder differs for one seed")
	}
	c, _ := serviceMix(8, 2, 2)
	if reflect.DeepEqual(a, c) || reflect.DeepEqual(fleetStream(7, 3), fleetStream(8, 3)) {
		t.Fatal("a different seed gave the same inputs")
	}
}

// multiset renders jobs as sorted strings.
func multiset(jobs []job) []string {
	var out []string
	for _, j := range jobs {
		b, _ := json.Marshal(j)
		out = append(out, string(b))
	}
	sort.Strings(out)
	return out
}

func TestSeedOnlyOrdersTheWork(t *testing.T) {
	a, as := serviceMix(1, 2, 3)
	b, bs := serviceMix(99, 2, 3)
	if !reflect.DeepEqual(as, bs) {
		t.Fatal("stored specs depend on the seed")
	}
	for c := range a {
		ja, jb := a[c], b[c]
		// Which specs repeat is seeded; the sim and store submissions are not.
		var fa, fb []job
		for _, j := range ja {
			if j.Role != roleRepeat {
				fa = append(fa, j)
			}
		}
		for _, j := range jb {
			if j.Role != roleRepeat {
				fb = append(fb, j)
			}
		}
		if !reflect.DeepEqual(multiset(fa), multiset(fb)) || len(ja) != len(jb) {
			t.Fatalf("client %d: work differs between seeds", c)
		}
	}
	sa, sb := fleetStream(1, 4), fleetStream(2, 4)
	for i := range sa {
		ka, kb := []string{}, []string{}
		for k := range sa[i] {
			ka = append(ka, sa[i][k].Key())
			kb = append(kb, sb[i][k].Key())
		}
		sort.Strings(ka)
		sort.Strings(kb)
		if !reflect.DeepEqual(ka, kb) {
			t.Fatalf("round %d: points differ between seeds", i)
		}
	}
}

func TestServiceMixShape(t *testing.T) {
	perClient, stored := serviceMix(3, 2, 2)
	owner := map[string]int{}
	storedIDs := map[string]bool{}
	for _, s := range stored {
		storedIDs[hashOf(s)] = true
	}
	total := 0
	for c, jobs := range perClient {
		seen := map[string]bool{}
		for _, j := range jobs {
			total++
			id := hashOf(j.Spec)
			if o, ok := owner[id]; ok && o != c {
				t.Fatalf("spec %+v shared by clients %d and %d", j.Spec, o, c)
			}
			owner[id] = c
			switch j.Role {
			case roleRepeat:
				if !seen[id] {
					t.Fatalf("client %d repeats %+v before submitting it", c, j.Spec)
				}
			case roleStore:
				if !storedIDs[id] || seen[id] {
					t.Fatalf("client %d: store job %+v not stored or not first", c, j.Spec)
				}
			case roleSim:
				if storedIDs[id] || seen[id] {
					t.Fatalf("client %d: sim job %+v stored or repeated", c, j.Spec)
				}
			}
			seen[id] = true
		}
	}
	if total < 100 {
		t.Fatalf("%d jobs, want at least 100", total)
	}
}

// Figure check tests render real quick-scale entries once and plant
// wrong outputs in them.

var (
	renderOnce sync.Once
	rendered   map[string]string
)

func renderedQuick(t *testing.T) map[string]string {
	t.Helper()
	renderOnce.Do(func() {
		rendered = map[string]string{}
		o := experiments.Quick()
		for _, name := range []string{"fig8", "fig9", "fig10", "fig11", "fig13", "fig14", "ablations"} {
			e, _ := experiments.Lookup(name)
			rendered[name] = render(e, o)
		}
		// extlocks takes seconds at quick scale; its tk/MCS/uc rows must
		// equal fig8's, so a copy of fig8 stands in for it.
		rendered["extlocks"] = strings.Replace(rendered["fig8"], "Figure 8", "Extended lock sweep", 1)
	})
	return rendered
}

// swapRows exchanges the labels of rows a and b, so their values swap.
func swapRows(out, a, b string) string {
	lines := strings.Split(out, "\n")
	for i, l := range lines {
		f := strings.Fields(l)
		if len(f) == 0 {
			continue
		}
		switch f[0] {
		case a:
			lines[i] = strings.Replace(l, a, b, 1)
		case b:
			lines[i] = strings.Replace(l, b, a, 1)
		}
	}
	return strings.Join(lines, "\n")
}

// bumpLast adds delta to the last cell of row in the first table
// (the total column of a traffic table).
func bumpLast(out, row string, delta int) string {
	lines := strings.Split(out, "\n")
	for i, l := range lines {
		f := strings.Fields(l)
		if len(f) > 1 && f[0] == row {
			v, _ := strconv.Atoi(f[len(f)-1])
			lines[i] = strings.TrimSuffix(l, f[len(f)-1]) + strconv.Itoa(v+delta)
			break
		}
	}
	return strings.Join(lines, "\n")
}

// setCell rewrites the cell (row, col) of the table whose title contains
// title. The rewritten row is single-space separated, which the parser
// reads the same way.
func setCell(out, title, row, col, value string) string {
	blocks := strings.Split(out, "\n\n")
	for b, block := range blocks {
		lines := strings.Split(block, "\n")
		if len(lines) < 2 || !strings.Contains(lines[0], title) {
			continue
		}
		ci := -1
		for j, c := range strings.Fields(lines[1]) {
			if c == col {
				ci = j
			}
		}
		for i, l := range lines[2:] {
			f := strings.Fields(l)
			if len(f) > ci+1 && ci >= 0 && f[0] == row {
				f[ci+1] = value
				lines[i+2] = strings.Join(f, " ")
			}
		}
		blocks[b] = strings.Join(lines, "\n")
	}
	return strings.Join(blocks, "\n\n")
}

func TestFigureChecksAcceptRealOutput(t *testing.T) {
	outs := renderedQuick(t)
	for name, out := range outs {
		if err := checkFigure(name, out, func(n string) string { return outs[n] }); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestFigureChecksRejectPlantedErrors(t *testing.T) {
	outs := renderedQuick(t)
	planted := []struct {
		name, why, out string
	}{
		{"fig8", "MCS-c row swapped with tk-u", swapRows(outs["fig8"], "MCS-c", "tk-u")},
		{"fig9", "total off by one", bumpLast(outs["fig9"], "MCS-i", 1)},
		{"fig10", "total off by one", bumpLast(outs["fig10"], "tk-u", -1)},
		{"fig10", "WI row in an update table", strings.Replace(outs["fig10"], "tk-u", "tk-i", 1)},
		{"fig10", "MCS-u useful and proliferation swapped", setCell(setCell(outs["fig10"], "Figure 10", "MCS-u", "useful", "50678"), "Figure 10", "MCS-u", "prolif", "7901")},
		{"fig11", "db-u row swapped with db-i", swapRows(outs["fig11"], "db-u", "db-i")},
		{"fig13", "db-u useful off by one", setCell(outs["fig13"], "Figure 13", "db-u", "useful", "39999")},
		{"fig14", "sr-u row swapped with pr-u", swapRows(outs["fig14"], "sr-u", "pr-u")},
		{"fig14", "pr-i row swapped with sr-i", swapRows(outs["fig14"], "pr-i", "sr-i")},
		{"extlocks", "MCS-c row swapped with uc-c", swapRows(outs["extlocks"], "MCS-c", "uc-c")},
		{"ablations", "WI spin-wait updates", setCell(outs["ablations"], "spin-wait model (ticket lock, WI", "polling", "updates", "3")},
	}
	for _, p := range planted {
		if p.out == outs[p.name] {
			t.Fatalf("%s (%s): mutation did not change the output", p.name, p.why)
		}
		if err := checkFigure(p.name, p.out, func(n string) string { return outs[n] }); err == nil {
			t.Errorf("%s: check accepted a planted error (%s)", p.name, p.why)
		}
	}
}

func TestServiceChecks(t *testing.T) {
	spec := service.JobSpec{Kind: "run", Run: "lock", Algo: "mcs", Protocol: "CU", Procs: 4, Iterations: 16}
	canon, id, err := service.CanonicalHash(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := service.Execute(context.Background(), canon, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := json.Marshal(res)
	doc := func(result []byte) []byte {
		b, _ := json.Marshal(service.JobStatus{ID: id, Status: service.StatusDone, Spec: canon, Result: result})
		return b
	}
	good := doc(ref)
	wrong := doc([]byte(strings.Replace(string(ref), "acquires", "acquirez", 1)))

	first := map[string][]byte{}
	if err := checkJob(outcome{job: job{spec, roleSim}, body: good, xcache: "miss"}, first, ref); err != nil {
		t.Fatalf("good document rejected: %v", err)
	}
	if err := checkJob(outcome{job: job{spec, roleRepeat}, body: good, xcache: "hit"}, first, ref); err != nil {
		t.Fatalf("good hit rejected: %v", err)
	}
	cases := []struct {
		why   string
		o     outcome
		first map[string][]byte
	}{
		{"result differs from Execute", outcome{job: job{spec, roleSim}, body: wrong, xcache: "miss"}, map[string][]byte{}},
		{"hit differs from first document", outcome{job: job{spec, roleRepeat}, body: wrong, xcache: "hit"}, map[string][]byte{id: good}},
		{"repeat simulated again", outcome{job: job{spec, roleRepeat}, body: good, xcache: "miss"}, map[string][]byte{id: good}},
		{"store job missing from store", outcome{job: job{spec, roleStore}, body: good, xcache: "hit"}, map[string][]byte{}},
		{"failed status", outcome{job: job{spec, roleSim}, body: []byte(fmt.Sprintf(`{"id":%q,"status":"failed"}`, id)), xcache: "miss"}, map[string][]byte{}},
	}
	for _, c := range cases {
		if err := checkJob(c.o, c.first, ref); err == nil {
			t.Errorf("checkJob accepted: %s", c.why)
		}
	}
}

func TestFleetPointCheck(t *testing.T) {
	pt := fleetPoints()[0]
	r, err := experiments.RunPoint(context.Background(), pt)
	if err != nil {
		t.Fatal(err)
	}
	ref, _ := json.Marshal(r)
	if !pointMatches(r, ref) {
		t.Fatal("a point does not match its own reference")
	}
	r.Latency++
	if pointMatches(r, ref) {
		t.Fatal("a wrong latency matched the reference")
	}
	r.Latency--
	r.Misses[0]++
	if pointMatches(r, ref) {
		t.Fatal("a miss count off by one matched the reference")
	}
}

func TestModuleFolding(t *testing.T) {
	cases := []struct {
		frames []string
		want   string
	}{
		{[]string{"runtime.mallocgc", "coherencesim/internal/proto.(*System).handleRead", "coherencesim/internal/sim.(*Engine).Run"}, "proto"},
		{[]string{"coherencesim/internal/runner.Map[...].func1", "main.runFigures"}, "runner"},
		{[]string{"coherencesim/internal/experiments.Catalog.one.func1"}, "experiments"},
		{[]string{"encoding/json.Marshal", "main.(*client).run"}, "perfbench"},
		{[]string{"runtime.gcBgMarkWorker"}, "other"},
	}
	var stacks []stack
	for _, c := range cases {
		if got := moduleOf(c.frames); got != c.want {
			t.Errorf("moduleOf(%v) = %s, want %s", c.frames, got, c.want)
		}
		stacks = append(stacks, stack{frames: c.frames, cpuNS: 10_000_000})
	}
	got := foldStacks(stacks)
	if got["proto"] != 0.01 || got["perfbench"] != 0.01 || len(got) != 5 {
		t.Errorf("foldStacks = %v", got)
	}
}

// pb is a minimal protobuf encoder for a synthetic profile.
type pb []byte

func (b pb) varint(num int, v uint64) pb {
	b = appendUvarint(b, uint64(num)<<3)
	return appendUvarint(b, v)
}

func (b pb) bytes(num int, data []byte) pb {
	b = appendUvarint(b, uint64(num)<<3|2)
	b = appendUvarint(b, uint64(len(data)))
	return append(b, data...)
}

func appendUvarint(b []byte, v uint64) []byte {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func TestDecodeProfile(t *testing.T) {
	// Strings: 0 "", 1 samples, 2 count, 3 cpu, 4 nanoseconds, 5.. functions.
	var p pb
	for _, s := range []string{"", "samples", "count", "cpu", "nanoseconds",
		"coherencesim/internal/cache.(*Cache).Lookup", "coherencesim/internal/proto.(*System).read", "main.main"} {
		p = p.bytes(6, []byte(s))
	}
	p = p.bytes(1, pb{}.varint(1, 1).varint(2, 2))
	p = p.bytes(1, pb{}.varint(1, 3).varint(2, 4))
	for id := uint64(1); id <= 3; id++ {
		p = p.bytes(5, pb{}.varint(1, id).varint(2, id+4))
	}
	// Location 1 inlines cache into proto; location 2 is main.
	p = p.bytes(4, pb{}.varint(1, 1).bytes(4, pb{}.varint(1, 1)).bytes(4, pb{}.varint(1, 2)))
	p = p.bytes(4, pb{}.varint(1, 2).bytes(4, pb{}.varint(1, 3)))
	// A packed sample (locations 1, 2) and an unpacked one (location 2).
	p = p.bytes(2, pb{}.bytes(1, appendUvarint(appendUvarint(nil, 1), 2)).bytes(2, appendUvarint(appendUvarint(nil, 3), 30_000_000)))
	p = p.bytes(2, pb{}.varint(1, 2).varint(2, 1).varint(2, 10_000_000))

	stacks, err := decodeProfile(p)
	if err != nil {
		t.Fatal(err)
	}
	got := foldStacks(stacks)
	want := map[string]float64{"cache": 0.03, "perfbench": 0.01}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("folded %v, want %v", got, want)
	}
	if _, err := decodeProfile([]byte{0xff}); err == nil {
		t.Fatal("malformed profile decoded")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "job", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "submit", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "await", Start: 20, End: 60},
	}
	st := spanStats(spans)
	if got := st["job"].SelfS * 1e9; got < 49.999 || got > 50.001 {
		t.Fatalf("job self = %v ns, want 50", got)
	}
}

func TestBenchmarkFileNamesMatch(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	h := &harness{setup: []float64{1}, wall: 1}
	e2e := h.endToEnd()
	if len(doc.EndToEnd) != len(e2e) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(doc.EndToEnd), len(e2e))
	}
	for _, m := range doc.EndToEnd {
		if e2e[m.Name].Unit != m.Unit {
			t.Errorf("end-to-end %s: unit %q, program %q", m.Name, m.Unit, e2e[m.Name].Unit)
		}
	}
	pl := perLayerMetrics()
	if len(doc.PerLayer) != len(pl) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, the program %d", len(doc.PerLayer), len(pl))
	}
	for i := range min(len(pl), len(doc.PerLayer)) {
		if doc.PerLayer[i].Name != pl[i].name || doc.PerLayer[i].Unit != pl[i].unit {
			t.Errorf("per-layer %d: file %s/%s, program %s/%s", i, doc.PerLayer[i].Name, doc.PerLayer[i].Unit, pl[i].name, pl[i].unit)
		}
	}
}
