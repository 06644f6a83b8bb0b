package main

// daemon-mix: affidavitd as a subprocess with durable job state, driven
// over HTTP by two closed-loop clients. Each client cycles through one
// fresh POST /explain and two repeats of pairs it explained before (dedupe
// hits served from the result store).

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math/rand"
	"mime/multipart"
	"net"
	"net/http"
	"net/http/httptrace"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"affidavit"
)

const (
	adultRows = 2000
	clients   = 2
	// opsPerSecond sizes the input pools: fresh pairs per client per second
	// of window. A client runs about 3.7 cycles a second on a 2-vCPU VM,
	// so this leaves 2.7x headroom; a client that still runs out before
	// the deadline fails the run.
	opsPerSecond = 10
	compressionN = 16 // fresh explains per client that compression averages
	crossChecked = 3  // fresh pairs per client re-explained in process
	// rssOpsPerSecond sets the request count at which peak_rss_mb is read:
	// affidavitd's RSS grows with the requests it has served, so reading
	// it after a fixed count keeps the metric apart from the run's speed.
	rssOpsPerSecond = 12
)

// request is one prepared multipart body.
type request struct {
	path     string
	body     []byte
	ctype    string
	csvBytes int
	records  int
}

func multipartBody(path string, files map[string][]byte, values map[string]string, records int) (request, error) {
	var buf bytes.Buffer
	w := multipart.NewWriter(&buf)
	n := 0
	for _, name := range []string{"source", "target"} {
		b, ok := files[name]
		if !ok {
			continue
		}
		part, err := w.CreateFormFile(name, name+".csv")
		if err != nil {
			return request{}, err
		}
		part.Write(b)
		n += len(b)
	}
	for k, v := range values {
		if err := w.WriteField(k, v); err != nil {
			return request{}, err
		}
	}
	if err := w.Close(); err != nil {
		return request{}, err
	}
	return request{path: path, body: buf.Bytes(), ctype: w.FormDataContentType(), csvBytes: n, records: records}, nil
}

// daemonInputs is one run's generated requests.
type daemonInputs struct {
	fresh [clients][]request // POST /explain bodies, one distinct pair each
	// pairs holds each client's first crossChecked fresh pairs, for the
	// in-process cross-check.
	pairs [clients][]csvPair
}

func makeDaemonInputs(seed int64, seconds int, gt *genTimes) (*daemonInputs, error) {
	n := seconds*opsPerSecond + 16
	in := &daemonInputs{}
	for c := 0; c < clients; c++ {
		pairs, err := adultPairs(seed*clients+int64(c), n, gt)
		if err != nil {
			return nil, err
		}
		// A copy, so the other pairs' CSV bytes live only in their bodies.
		in.pairs[c] = append([]csvPair(nil), pairs[:min(crossChecked, len(pairs))]...)
		table := fmt.Sprintf("adult-%d", c)
		for _, p := range pairs {
			r, err := multipartBody("/explain", map[string][]byte{"source": p.Source, "target": p.Target},
				map[string]string{"table": table}, p.Records)
			if err != nil {
				return nil, err
			}
			in.fresh[c] = append(in.fresh[c], r)
		}
	}
	return in, nil
}

// daemon is a running affidavitd.
type daemon struct {
	cmd    *exec.Cmd
	url    string
	dir    string
	client *http.Client
	waited chan error
}

func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon launches affidavitd on a fresh jobs directory and waits for
// /healthz. traced keeps the default trace buffer; otherwise tracing is off.
func startDaemon(cfg config, dir string, traced bool) (*daemon, error) {
	if cfg.daemon == "" {
		return nil, fmt.Errorf("daemon-mix needs -affidavitd")
	}
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	args := []string{"-addr", fmt.Sprintf("127.0.0.1:%d", port), "-jobs-dir", filepath.Join(dir, "jobs")}
	if !traced {
		args = append(args, "-trace-buffer", "0")
	}
	logf, err := os.Create(filepath.Join(dir, "affidavitd.log"))
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(cfg.daemon, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	d := &daemon{cmd: cmd, url: fmt.Sprintf("http://127.0.0.1:%d", port), dir: dir, waited: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients}}}
	go func() { d.waited <- cmd.Wait(); logf.Close() }()
	for deadline := time.Now().Add(60 * time.Second); ; {
		resp, err := d.client.Get(d.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		select {
		case err := <-d.waited:
			return nil, fmt.Errorf("affidavitd exited during start-up: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("affidavitd did not answer /healthz")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// stop terminates the daemon and waits until it has exited.
func (d *daemon) stop() {
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.waited:
	case <-time.After(20 * time.Second):
		d.cmd.Process.Kill()
		<-d.waited
	}
	d.client.CloseIdleConnections()
}

// response is one answered request. wrote and firstByte are the client's
// measured HTTP events: request fully sent, first response byte read.
type response struct {
	status           int
	body             []byte
	traceID          string
	ms               float64
	wrote, firstByte time.Time
}

func (d *daemon) do(method, path, ctype string, body []byte) (response, error) {
	req, err := http.NewRequest(method, d.url+path, bytes.NewReader(body))
	if err != nil {
		return response{}, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	var out response
	req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
		WroteRequest:         func(httptrace.WroteRequestInfo) { out.wrote = time.Now() },
		GotFirstResponseByte: func() { out.firstByte = time.Now() },
	}))
	t0 := time.Now()
	resp, err := d.client.Do(req)
	if err != nil {
		return response{}, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return response{}, err
	}
	out.status, out.body, out.traceID = resp.StatusCode, b, resp.Header.Get("X-Affidavit-Trace-Id")
	out.ms = ms(time.Since(t0))
	return out, nil
}

func (d *daemon) post(r request) (response, error) { return d.do("POST", r.path, r.ctype, r.body) }

func (d *daemon) getJSON(path string, v any) error {
	r, err := d.do("GET", path, "", nil)
	if err != nil {
		return err
	}
	if r.status != http.StatusOK {
		return fmt.Errorf("GET %s: %d", path, r.status)
	}
	return json.Unmarshal(r.body, v)
}

// opKind labels the two request types.
type opKind int

const (
	opFresh opKind = iota
	opHit
)

var opNames = [...]string{"explain", "hit"}

type daemonOp struct {
	kind             opKind
	client           int
	ms               float64
	t0, t1           time.Time
	wrote, firstByte time.Time // the response's HTTP events
	traceID          string
	trace            *affidavit.Trace // fetched in the traced half of a trace run
	records          int
}

// newOp times one answered request of kind k.
func newOp(k opKind, cs *clientState, t0 time.Time, resp response, records int) daemonOp {
	return daemonOp{kind: k, client: cs.id, ms: resp.ms, t0: t0, t1: time.Now(), wrote: resp.wrote,
		firstByte: resp.firstByte, traceID: resp.traceID, records: records}
}

// clientState is one closed-loop client's progress.
type clientState struct {
	id     int
	fresh  int      // next fresh pair
	bodies [][]byte // response body of each explained fresh pair
	comp   []float64
	rng    *rand.Rand // the loop's order and repeat choices
}

// mixRun is one daemon-mix session against one daemon.
type mixRun struct {
	d       *daemon
	in      *daemonInputs
	mu      sync.Mutex
	ops     []daemonOp
	rep     *report
	uploads int64 // CSV bytes uploaded to this daemon
	states  []*clientState
	// fetchTraces fetches the run trace of every fresh explain as soon as
	// it is answered, before the daemon's ring evicts it.
	fetchTraces bool
	fetching    sync.WaitGroup
	// rssAt is the request count at which the daemon's VmHWM is read, so
	// peak_rss_mb covers a fixed amount of work whatever the speed.
	rssAt int
	rssMB float64
}

func (m *mixRun) record(op daemonOp, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rep.attempted++
	if err != nil {
		m.rep.fail(err)
	}
	if op.ms == 0 {
		return // never answered: nothing to time
	}
	// An answered request is timed even when its check failed, so that
	// failures cannot bias the latencies.
	m.ops = append(m.ops, op)
	if len(m.ops) == m.rssAt {
		m.rssMB = peakRSSMB(m.d.cmd.Process.Pid)
	}
	if m.fetchTraces && op.traceID != "" && op.kind == opFresh {
		// Fetched beside the client, so the closed loop keeps its pace.
		m.fetching.Add(1)
		go m.fetchTrace(len(m.ops)-1, op)
	}
}

func (m *mixRun) fetchTrace(i int, op daemonOp) {
	defer m.fetching.Done()
	var t affidavit.Trace
	err := m.d.getJSON("/traces/"+op.traceID, &t)
	m.mu.Lock()
	defer m.mu.Unlock()
	if err != nil {
		m.rep.fail(fmt.Errorf("%s trace %s: %w", opNames[op.kind], op.traceID, err))
		return
	}
	m.ops[i].trace = &t
}

// fresh explains client c's next pair; ok is false once the pool is spent.
func (m *mixRun) fresh(cs *clientState) (op daemonOp, ok bool, err error) {
	if cs.fresh >= len(m.in.fresh[cs.id]) {
		return op, false, nil
	}
	r := m.in.fresh[cs.id][cs.fresh]
	cs.fresh++
	t0 := time.Now()
	resp, err := m.d.post(r)
	m.addUpload(r.csvBytes)
	op = newOp(opFresh, cs, t0, resp, r.records)
	if err == nil && resp.status != http.StatusOK {
		err = fmt.Errorf("status %d: %.200s", resp.status, resp.body)
	}
	// An answered pair is repeated even when its check fails, so the hits
	// keep their own check; an unanswered one (nil body) never is.
	var body []byte
	if err == nil {
		body = resp.body
		var comp float64
		var decoded bool
		if comp, decoded, err = checkBody(body); decoded {
			cs.comp = append(cs.comp, comp)
		}
	}
	cs.bodies = append(cs.bodies, body)
	if err != nil {
		return op, true, fmt.Errorf("explain: %w", err)
	}
	return op, true, nil
}

// hit repeats an explained pair: the body must equal the original's.
func (m *mixRun) hit(cs *clientState, k int) (daemonOp, error) {
	r := m.in.fresh[cs.id][k]
	t0 := time.Now()
	resp, err := m.d.post(r)
	m.addUpload(r.csvBytes)
	op := newOp(opHit, cs, t0, resp, 0)
	if err != nil {
		return op, err
	}
	if resp.status != http.StatusOK {
		return op, fmt.Errorf("hit: status %d: %.200s", resp.status, resp.body)
	}
	if !bytes.Equal(resp.body, cs.bodies[k]) {
		return op, fmt.Errorf("hit on pair %d of client %d: body differs from the original explain", k, cs.id)
	}
	return op, nil
}

func (m *mixRun) addUpload(n int) {
	m.mu.Lock()
	m.uploads += int64(n)
	m.mu.Unlock()
}

// decodeBody reads the cost fields of a Result.JSON body.
func decodeBody(body []byte) (cost, trivial, compression float64, err error) {
	var r struct {
		Cost        *float64 `json:"cost"`
		TrivialCost float64  `json:"trivial_cost"`
		Compression float64  `json:"compression"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return 0, 0, 0, err
	}
	if r.Cost == nil {
		return 0, 0, 0, fmt.Errorf("no cost in body")
	}
	return *r.Cost, r.TrivialCost, r.Compression, nil
}

// checkBody is the check every explained body passes: cost ≤ trivial
// cost. It returns the compression; decoded reports whether the body
// carried one.
func checkBody(body []byte) (comp float64, decoded bool, err error) {
	cost, trivial, comp, err := decodeBody(body)
	if err != nil {
		return 0, false, err
	}
	if cost > trivial {
		err = fmt.Errorf("cost %.3f exceeds trivial cost %.3f", cost, trivial)
	}
	return comp, true, err
}

// warmUp explains one fresh pair, so the loop starts with something to
// hit. A failed check counts in m.rep.
func (m *mixRun) warmUp(cs *clientState) {
	_, _, err := m.fresh(cs)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rep.attempted++
	if err != nil {
		m.rep.fail(fmt.Errorf("warm-up: %w", err))
	}
}

// loop runs one client's cycles until the deadline. A cycle is one fresh
// explain and two repeats in a seed-drawn order, so the two
// clients' explains overlap by chance rather than in a phase they lock
// into, which would differ from run to run. A client whose inputs run out
// first fails the run, so the pool size never shapes what is measured.
func (m *mixRun) loop(cs *clientState, deadline time.Time) {
	kinds := []opKind{opFresh, opHit, opHit}
	for time.Now().Before(deadline) {
		cs.rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
		hits := 0
		for _, kind := range kinds {
			var op daemonOp
			ok, err := true, error(nil)
			switch kind {
			case opFresh:
				op, ok, err = m.fresh(cs)
			case opHit:
				// Repeats: the latest explained pair, then an earlier one.
				k := len(cs.bodies) - 1
				if hits++; hits > 1 {
					k = cs.rng.Intn(len(cs.bodies))
				}
				if cs.bodies[k] == nil {
					continue // never answered, so nothing to repeat
				}
				op, err = m.hit(cs, k)
			}
			if !ok {
				m.record(daemonOp{}, fmt.Errorf("client %d ran out of inputs before the deadline", cs.id))
				return
			}
			m.record(op, err)
		}
	}
}

// session runs the mix for the given window against m.d.
func (m *mixRun) session(window time.Duration) time.Duration {
	var wg sync.WaitGroup
	deadline := time.Now().Add(window)
	t0 := time.Now()
	for _, cs := range m.states {
		wg.Add(1)
		go func(cs *clientState) {
			defer wg.Done()
			m.loop(cs, deadline)
		}(cs)
	}
	wg.Wait()
	return time.Since(t0)
}

// mixSetup generates the inputs, starts the daemon and warms it up.
func mixSetup(cfg config, rep *report, traced bool, gt *genTimes) (*mixRun, error) {
	in, err := makeDaemonInputs(cfg.seed, cfg.seconds, gt)
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(cfg, filepath.Join(cfg.work, "daemon"), traced)
	if err != nil {
		return nil, err
	}
	m := &mixRun{d: d, in: in, rep: rep}
	m.states = make([]*clientState, clients)
	for c := range m.states {
		m.states[c] = &clientState{id: c, rng: rand.New(rand.NewSource(cfg.seed*clients + int64(c)))}
		m.warmUp(m.states[c])
	}
	return m, nil
}

func runDaemon(cfg config) (*report, error) {
	var gt genTimes
	var m *mixRun
	// Set-up repeats: generate, start and warm up; all but the
	// last daemon are stopped again. The traced run measures an untraced
	// daemon and then a traced one, each for half the window.
	setups := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		if m != nil {
			m.d.stop()
		}
		t0 := time.Now()
		gt = genTimes{}
		var err error
		if m, err = mixSetup(cfg, newReport(), false, &gt); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	// The kept daemon's warm-up checks count in the run's report.
	rep := m.rep
	rep.setup(setups)

	window := time.Duration(cfg.seconds) * time.Second
	if cfg.trace {
		window /= 2
	}
	m.rssAt = int(window.Seconds() * rssOpsPerSecond)
	wall := m.session(window)
	peak, peakOps := m.rssMB, m.rssAt
	if len(m.ops) < m.rssAt {
		// A slow run never reached the mark: its end is the high-water.
		peak, peakOps = peakRSSMB(m.d.cmd.Process.Pid), len(m.ops)
	}
	stored := dirBytes(filepath.Join(m.d.dir, "jobs"))
	m.d.stop()
	if err := crossCheck(m, rep); err != nil {
		return nil, err
	}

	for _, op := range m.ops {
		rep.timeline = append(rep.timeline, [3]any{opNames[op.kind], ms(op.t0.Sub(m.ops[0].t0)), op.ms})
	}
	lat := latencies(m.ops)
	rep.timing("explain_p50_ms", lat[opFresh], 50)
	rep.timing("explain_p90_ms", lat[opFresh], 90)
	rep.timing("hit_p50_ms", lat[opHit], 50)
	rep.timing("hit_p90_ms", lat[opHit], 90)
	records := 0
	for _, op := range m.ops {
		records += op.records
	}
	rep.set("ops_per_s", float64(len(m.ops))/wall.Seconds(), "1/s", len(m.ops))
	rep.set("rows_per_s", float64(records)/wall.Seconds(), "1/s", len(m.ops))
	rep.set("peak_rss_mb", peak, "MB", peakOps)
	rep.set("stored_bytes_ratio", float64(stored)/float64(m.uploads), "ratio", 1)
	var comp []float64
	for _, cs := range m.states {
		for i := 0; i < len(cs.comp) && i < compressionN; i++ {
			comp = append(comp, cs.comp[i])
		}
	}
	rep.set("compression", mean(comp), "ratio", len(comp))
	if !cfg.trace {
		return rep, nil
	}
	return rep, tracedMix(cfg, rep, lat[opFresh], &gt)
}

// tracedMix is the traced half of a daemon-mix trace run: a second daemon
// with default flags (tracing on), every fresh explain joined to its run
// trace, then the daemon's counters.
func tracedMix(cfg config, rep *report, untraced []float64, gt *genTimes) error {
	rep.layer("datasets.build_ms", ms(gt.build), "ms")
	rep.layer("gen.generate_ms", ms(gt.generate), "ms")
	m, err := mixSetup(cfg, rep, true, &genTimes{})
	if err != nil {
		return err
	}
	defer m.d.stop()
	m.fetchTraces = true
	m.session(time.Duration(cfg.seconds) * time.Second / 2)
	m.fetching.Wait()
	lat := latencies(m.ops)
	rep.layer("trace.overhead_frac", percentile(lat[opFresh], 50)/percentile(untraced, 50)-1, "ratio")

	tr := newTracer()
	if len(m.ops) > 0 {
		tr.t0 = m.ops[0].t0
	}
	var service, ingest, search, convert []float64
	for i, op := range m.ops {
		req := fmt.Sprintf("%s-%d", opNames[op.kind], i)
		root := tr.add(req, opNames[op.kind], 0, op.t0, op.t1)
		// The client's HTTP events bound the transfer spans.
		tr.add(req, "send", root, op.t0, op.wrote)
		tr.add(req, "receive", root, op.firstByte, op.t1)
		if op.trace == nil {
			continue // a hit runs nothing
		}
		// The run trace's own clock: the daemon shares this host's.
		t := op.trace
		runStart := t.StartedAt
		run := tr.add(req, "run", root, runStart, runStart.Add(time.Duration(t.DurationMS*float64(time.Millisecond))))
		svc := op.ms - t.DurationMS
		var in, se, co float64
		for _, s := range t.Spans {
			a := runStart.Add(time.Duration(s.StartMS * float64(time.Millisecond)))
			b := a.Add(time.Duration(s.DurationMS * float64(time.Millisecond)))
			tr.add(req, "run."+strings.SplitN(s.Stage, ":", 2)[0], run, a, b)
			switch {
			case strings.HasPrefix(s.Stage, "ingest"):
				in += s.DurationMS
			case s.Stage == "search":
				se += s.DurationMS
			case s.Stage == "convert":
				co += s.DurationMS
			}
		}
		service = append(service, svc)
		ingest = append(ingest, in)
		search = append(search, se)
		convert = append(convert, co)
	}
	rep.layer("affidavitd.service_ms", percentile(service, 50), "ms")
	rep.layer("affidavitd.trace_ingest_ms", percentile(ingest, 50), "ms")
	rep.layer("affidavitd.trace_search_ms", percentile(search, 50), "ms")
	rep.layer("affidavitd.trace_convert_ms", percentile(convert, 50), "ms")
	if err := daemonCounters(m, rep); err != nil {
		return err
	}

	// Unit costs and the search counts on one of the run's fresh pairs, in
	// process.
	p := m.in.pairs[0][0]
	clock := &phaseClock{}
	e, err := affidavit.New(affidavit.WithWorkers(runtime.NumCPU()), affidavit.WithObserver(clock))
	if err != nil {
		return err
	}
	clock.reset()
	t0 := time.Now()
	res, err := explainPair(context.Background(), e, p)
	if err != nil {
		return err
	}
	ptr := newTracer()
	ptr.explainSpans("in-process", clock, t0, time.Now())
	searchCounts(rep, res.Stats)
	searchPhases(rep, ptr)
	if err := layerUnitCosts(rep, res, p, runtime.NumCPU()); err != nil {
		return err
	}
	// The in-process explain's spans are cut at the observer's events and
	// must cover it. A daemon request's spans cover only what the client
	// and the run trace time; the rest (upload handling, queue wait,
	// journal fsyncs, result store) nothing the daemon exposes attributes,
	// so its covered share is reported, not gated.
	ptr.checkCoverage(rep, "explain")
	rep.layer("affidavitd.attributed_frac", tr.coverage(opNames[opFresh]).median, "ratio")
	tr.selfTimes(rep)
	return tr.write(cfg.out("spans"))
}

// daemonCounters reads the jobs counters from /metrics and the bytes each
// store keeps on disk.
func daemonCounters(m *mixRun, rep *report) error {
	r, err := m.d.do("GET", "/metrics", "", nil)
	if err != nil {
		return err
	}
	prom := parseProm(r.body)
	submitted := prom["affidavit_jobs_submitted_total"]
	hits := prom["affidavit_jobs_dedupe_hits_total"]
	rep.layer("jobs.submitted", submitted, "count")
	rep.layer("jobs.dedupe_hits", hits, "count")
	ratio := 0.0
	if submitted+hits > 0 {
		ratio = hits / (submitted + hits)
	}
	rep.layer("jobs.dedupe_ratio", ratio, "ratio")
	rep.layer("jobs.retried", prom["affidavit_jobs_retried_total"], "count")
	rep.layer("jobs.failed", prom["affidavit_jobs_failed_total"], "count")

	jobs := filepath.Join(m.d.dir, "jobs")
	var journal, blobs, results int64
	filepath.WalkDir(jobs, func(path string, de fs.DirEntry, err error) error {
		if err != nil || de.IsDir() {
			return nil
		}
		info, err := de.Info()
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(jobs, path)
		switch top := strings.SplitN(rel, string(filepath.Separator), 2)[0]; {
		case strings.HasPrefix(top, "blob"):
			blobs += info.Size()
		case strings.HasPrefix(top, "result"):
			results += info.Size()
		case strings.HasSuffix(top, ".jsonl"):
			journal += info.Size()
		}
		return nil
	})
	rep.layer("jobs.journal_bytes", float64(journal), "bytes")
	rep.layer("jobs.blob_bytes", float64(blobs), "bytes")
	rep.layer("jobs.result_bytes", float64(results), "bytes")
	return nil
}

// parseProm reads Prometheus text into series → value, summing repeats.
func parseProm(b []byte) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err == nil {
			out[line[:i]] += v
		}
	}
	return out
}

// crossCheck explains the first fresh pairs of each client again in
// process, through a plain Explainer. Each result must pass Validate and
// Cost ≤ TrivialCost, and its explanation and cost must equal the daemon's
// bytes.
func crossCheck(m *mixRun, rep *report) error {
	ctx := context.Background()
	e, err := affidavit.New(affidavit.WithWorkers(runtime.NumCPU()))
	if err != nil {
		return err
	}
	for c, cs := range m.states {
		for k := 0; k < len(cs.bodies) && k < len(m.in.pairs[c]); k++ {
			if cs.bodies[k] == nil {
				continue
			}
			res, err := explainPair(ctx, e, m.in.pairs[c][k])
			if err != nil {
				return err
			}
			rep.attempted++
			err = checkResult(res)
			var want, got []byte
			if err == nil {
				want, err = bodyKey(cs.bodies[k])
			}
			if err == nil {
				got, err = resultKey(res)
			}
			if err == nil && !bytes.Equal(want, got) {
				err = fmt.Errorf("daemon and in-process explanations differ")
			}
			if err != nil {
				rep.fail(fmt.Errorf("fresh pair %d of client %d: %w", k, c, err))
			}
		}
	}
	return nil
}

func latencies(ops []daemonOp) map[opKind][]float64 {
	out := map[opKind][]float64{}
	for _, op := range ops {
		out[op.kind] = append(out[op.kind], op.ms)
	}
	return out
}

// dirBytes totals the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	filepath.WalkDir(dir, func(_ string, de fs.DirEntry, err error) error {
		if err == nil && !de.IsDir() {
			if info, err := de.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}
