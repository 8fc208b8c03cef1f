package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/sweep"
	"repro/internal/variation"
)

// proc is one program process the benchmark started.
type proc struct {
	name string
	cmd  *exec.Cmd
	log  *os.File
	done chan struct{}
}

func startProc(name, bin string, args []string, logPath string) (*proc, error) {
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = lf, lf
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, log: lf, done: make(chan struct{})}
	go func() {
		cmd.Wait() //nolint:errcheck // the exit status is read from ProcessState
		close(p.done)
	}()
	return p, nil
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// stop asks the process to exit with SIGTERM and waits; after 300 ms it
// is killed (a coordinator's graceful shutdown can sit out its whole 5-s
// budget on worker long-polls, and the benchmark's stores are
// throwaway). Either way it has ended when stop returns.
func (p *proc) stop() {
	if !p.exited() {
		p.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // it may have exited already
		select {
		case <-p.done:
		case <-time.After(300 * time.Millisecond):
			p.cmd.Process.Kill() //nolint:errcheck // see above
			<-p.done
		}
	}
	p.log.Close()
}

// waitAddr waits for ogwsd to write its bound address.
func waitAddr(p *proc, path string) (string, error) {
	deadline := time.Now().Add(30 * time.Second)
	for {
		if data, err := os.ReadFile(path); err == nil && len(data) > 0 && data[len(data)-1] == '\n' {
			return strings.TrimSpace(string(data)), nil
		}
		if p.exited() {
			return "", fmt.Errorf("%s exited before listening (log %s)", p.name, p.log.Name())
		}
		if time.Now().After(deadline) {
			return "", fmt.Errorf("%s did not write its address in time", p.name)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// api is an HTTP client for one ogwsd with at most conns connections.
type api struct {
	base string
	hc   *http.Client
}

func newAPI(addr string, conns int) *api {
	return &api{base: "http://" + addr, hc: &http.Client{
		Timeout: 120 * time.Second,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		},
	}}
}

func (a *api) close() { a.hc.CloseIdleConnections() }

// reply is one HTTP exchange as the client saw it.
type reply struct {
	status  int
	body    []byte
	latMs   float64
	firstMs float64 // time to the first NDJSON line of a streamed reply
	firstAt time.Time
}

func (a *api) call(method, path string, body []byte, stream bool) (*reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, a.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	t0 := time.Now()
	resp, err := a.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	r := &reply{status: resp.StatusCode}
	if stream && resp.StatusCode == http.StatusOK {
		br := bufio.NewReader(resp.Body)
		var buf bytes.Buffer
		for {
			line, err := br.ReadBytes('\n')
			if len(line) > 0 && r.firstMs == 0 {
				r.firstAt = time.Now()
				r.firstMs = float64(r.firstAt.Sub(t0)) / 1e6
			}
			buf.Write(line)
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return nil, err
			}
		}
		r.body = buf.Bytes()
	} else if r.body, err = io.ReadAll(resp.Body); err != nil {
		return nil, err
	}
	r.latMs = msSince(t0)
	return r, nil
}

// do is call for set-up and probes: it requires 200 and decodes into
// out when out is non-nil.
func (a *api) do(method, path string, in, out any) error {
	var body []byte
	if in != nil {
		var err error
		if body, err = json.Marshal(in); err != nil {
			return err
		}
	}
	r, err := a.call(method, path, body, false)
	if err != nil {
		return err
	}
	if r.status != http.StatusOK {
		return fmt.Errorf("%s %s: %d: %.200s", method, path, r.status, r.body)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(r.body, out)
}

// request is one generated HTTP request. Requests with equal sig must
// return equal canonical outputs (repeat check).
type request struct {
	sig   string
	group string // latency-table row; sig when empty
	// heavy units go first in their pass (in seeded order), so a pass
	// does not end on one long request with a core idle.
	heavy   bool
	kind    string // register, solve, results, sweep, stream, montecarlo, corners
	circuit string
	method  string
	path    string
	body    []byte
	golden  string // fixture the canonical output must equal
	// local, when set, recomputes the canonical output in-process through
	// the library; a sample of these is checked after the timed phase.
	local func() (any, error)
}

func post(kind, sig, circuit, path string, body any) *request {
	data, err := json.Marshal(body)
	if err != nil {
		panic(err) // bodies are built from plain maps
	}
	return &request{sig: sig, kind: kind, circuit: circuit, method: "POST", path: path, body: data}
}

// unit is a sequence of requests one client sends in order (a warm-start
// chain); units are independent of each other.
type unit []*request

// outcome is what one response contributed.
type outcome struct {
	req      *request
	pass     int
	at       time.Time // when the request was sent
	status   int
	latMs    float64
	firstMs  float64
	bytes    int
	body     []byte // until decodeAll
	digest   [32]byte
	results  []*core.Result // returned solves
	ran      int            // solves the program actually ran
	cells    int            // sweep cells returned
	solveSec float64
	dedup    bool
	traced   bool
	err      error
}

// schedule lays out passes: each pass is the template's units in a
// seeded order, heavy units first. The same seed gives the same list and
// order.
func schedule(seed uint64, passes int, template func(pass int) []unit) (order []int, units []unit) {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	for p := 0; p < passes; p++ {
		us := template(p)
		rng.Shuffle(len(us), func(i, j int) { us[i], us[j] = us[j], us[i] })
		sort.SliceStable(us, func(i, j int) bool { return us[i][0].heavy && !us[j][0].heavy })
		for _, u := range us {
			order = append(order, p)
			units = append(units, u)
		}
	}
	return order, units
}

// drive runs the scheduled units on `clients` closed-loop clients: each
// takes the next unit, sends its requests one after another, and only
// then takes another. Every request holds the clock's gate while in
// flight. traced(pass) tells whether a pass is traced; reqSeq numbers
// the requests across calls.
func drive(clk *clock, a *api, clients int, order []int, units []unit, tr *tracer, traced func(int) bool, reqSeq *int64) []*outcome {
	var (
		mu   sync.Mutex
		next int
		outs []*outcome
		wg   sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(units) {
					return
				}
				for _, rq := range units[i] {
					t := traced(order[i])
					var id int64
					mu.Lock()
					*reqSeq++
					rid := *reqSeq
					mu.Unlock()
					clk.enter()
					at := time.Now()
					if t {
						id = tr.begin("http "+rq.kind, 0, rid)
					}
					r, err := a.call(rq.method, rq.path, rq.body, rq.kind == "stream")
					if t {
						if r != nil && r.firstMs > 0 {
							tr.eventAt("http first cell", id, rid, r.firstAt)
						}
						tr.end(id)
					}
					clk.leave()
					o := capture(rq, r, err)
					o.pass, o.traced, o.at = order[i], t, at
					mu.Lock()
					outs = append(outs, o)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return outs
}

// capture keeps what the client saw of one reply. Decoding waits for
// decodeAll, after the timed phase, so the load generator spends as
// little CPU as it can beside the programs it measures.
func capture(rq *request, r *reply, err error) *outcome {
	o := &outcome{req: rq}
	if err != nil {
		o.err = err
		return o
	}
	o.status, o.latMs, o.firstMs, o.bytes, o.body = r.status, r.latMs, r.firstMs, len(r.body), r.body
	if r.status < 200 || r.status > 299 {
		o.err = fmt.Errorf("status %d: %.200s", r.status, r.body)
	}
	return o
}

// inspect is capture and decode in one step.
func inspect(rq *request, r *reply, err error) *outcome {
	o := capture(rq, r, err)
	o.decode()
	return o
}

// decodeAll decodes every captured reply, once per distinct body.
func decodeAll(outs []*outcome) {
	seen := map[[32]byte]*outcome{}
	for _, o := range outs {
		if o.err != nil || o.body == nil {
			continue
		}
		h := sha256.Sum256(o.body)
		if d, ok := seen[h]; ok && d.req.kind == o.req.kind {
			o.err, o.digest, o.results, o.ran, o.cells, o.solveSec, o.dedup = d.err, d.digest, d.results, d.ran, d.cells, d.solveSec, d.dedup
		} else {
			o.decode()
			seen[h] = o
		}
		o.body = nil
	}
}

// decode fills the outcome from its reply body; any decoding problem
// becomes o.err.
func (o *outcome) decode() {
	if o.err != nil {
		return
	}
	rq, r := o.req, reply{body: o.body}
	var (
		canon any
		err   error
	)
	switch rq.kind {
	case "solve":
		var v struct {
			Dedup    bool         `json:"dedup"`
			SolveSec float64      `json:"solve_sec"`
			Result   *core.Result `json:"result"`
		}
		if err = json.Unmarshal(r.body, &v); err == nil && v.Result == nil {
			err = errors.New("no result")
		}
		if err == nil {
			canon, o.results, o.dedup, o.solveSec = v.Result, []*core.Result{v.Result}, v.Dedup, v.SolveSec
			if !v.Dedup {
				o.ran = 1
			}
		}
	case "sweep":
		var v struct {
			SolveSec float64       `json:"solve_sec"`
			Result   *sweep.Result `json:"result"`
		}
		if err = json.Unmarshal(r.body, &v); err == nil && v.Result == nil {
			err = errors.New("no result")
		}
		if err == nil {
			canon, o.solveSec = stripSweep(v.Result), v.SolveSec
			o.results, o.ran, o.cells = cellResults(v.Result.Cells), len(v.Result.Cells), len(v.Result.Cells)
		}
	case "stream":
		var g *streamedGrid
		if g, err = parseStream(r.body); err == nil {
			canon, o.solveSec = g, g.solveSec
			o.results, o.ran, o.cells = cellResults(g.Cells), len(g.Cells), len(g.Cells)
		}
	case "montecarlo":
		var v struct {
			Dedup    bool                `json:"dedup"`
			SolveSec float64             `json:"solve_sec"`
			Result   *variation.MCResult `json:"result"`
		}
		if err = json.Unmarshal(r.body, &v); err == nil && v.Result == nil {
			err = errors.New("no result")
		}
		if err == nil {
			canon, o.dedup, o.solveSec = v.Result, v.Dedup, v.SolveSec
			for _, s := range v.Result.Samples {
				o.results = append(o.results, s.Result)
			}
			if !v.Dedup {
				o.ran = len(v.Result.Samples)
			}
		}
	case "corners":
		var v struct {
			Dedup    bool                    `json:"dedup"`
			SolveSec float64                 `json:"solve_sec"`
			Report   *variation.CornerReport `json:"report"`
		}
		if err = json.Unmarshal(r.body, &v); err == nil && v.Report == nil {
			err = errors.New("no report")
		}
		if err == nil {
			canon, o.dedup, o.solveSec = v.Report, v.Dedup, v.SolveSec
			o.results = append(o.results, v.Report.Nominal)
			for _, c := range v.Report.Cells {
				o.results = append(o.results, c.Result)
			}
			if !v.Dedup {
				o.ran = len(o.results)
			}
		}
	default: // register, results: the whole body is the output
		var v any
		if err = json.Unmarshal(r.body, &v); err == nil {
			canon = v
		}
	}
	if err != nil {
		o.err = fmt.Errorf("decode %s reply: %w", rq.kind, err)
		return
	}
	o.digest = digest(canon)
}

// digest hashes v's JSON encoding. Decoding and re-encoding a float64
// round-trips every bit, so equal digests mean bit-equal outputs.
func digest(v any) [32]byte {
	data, err := json.Marshal(v)
	if err != nil {
		return sha256.Sum256([]byte("unencodable: " + err.Error()))
	}
	return sha256.Sum256(data)
}

// stripSweep zeroes the per-cell wall times, the only part of a sweep
// that is not a pure function of its request.
func stripSweep(r *sweep.Result) *sweep.Result {
	for i := range r.Cells {
		r.Cells[i].SolveSec = 0
	}
	return r
}

func cellResults(cells []sweep.Cell) []*core.Result {
	out := make([]*core.Result, 0, len(cells))
	for _, c := range cells {
		out = append(out, c.Result)
	}
	return out
}

// streamedGrid is a streamed sweep put back in row-major order.
type streamedGrid struct {
	Rows, Cols int
	Frontier   []int
	Cells      []sweep.Cell
	solveSec   float64
}

func parseStream(body []byte) (*streamedGrid, error) {
	g := &streamedGrid{}
	done := false
	for _, line := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
		var probe struct {
			Done     bool    `json:"done"`
			Error    string  `json:"error"`
			Rows     int     `json:"rows"`
			Cols     int     `json:"cols"`
			Frontier []int   `json:"frontier"`
			SolveSec float64 `json:"solve_sec"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return nil, err
		}
		switch {
		case probe.Error != "":
			return nil, fmt.Errorf("in-band error: %s", probe.Error)
		case probe.Done:
			g.Rows, g.Cols, g.Frontier, g.solveSec, done = probe.Rows, probe.Cols, probe.Frontier, probe.SolveSec, true
		default:
			var c sweep.Cell
			if err := json.Unmarshal(line, &c); err != nil {
				return nil, err
			}
			c.SolveSec = 0
			g.Cells = append(g.Cells, c)
		}
	}
	if !done {
		return nil, errors.New("stream ended without its summary line")
	}
	if len(g.Cells) != g.Rows*g.Cols {
		return nil, fmt.Errorf("stream has %d cells, want %d×%d", len(g.Cells), g.Rows, g.Cols)
	}
	sort.Slice(g.Cells, func(i, j int) bool {
		a, b := g.Cells[i], g.Cells[j]
		return a.Row < b.Row || a.Row == b.Row && a.Col < b.Col
	})
	return g, nil
}
