package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/pipe"
	"repro/internal/seq"
	"repro/internal/server"
	"repro/internal/yeastgen"
)

// serviceShape fixes the service-mix workload.
type serviceShape struct {
	proteome yeastgen.Params
	// The closed batch: jobsPerSecond times -seconds design jobs, all
	// submitted at t0 over one connection, each with this fixed shape
	// (min = max generations pins the work per job). Job i uses GA seed
	// i+1 in every run, as cmd/insipsload does, for the reason given on
	// designShape.designs; -seed drives the score stream.
	jobsPerSecond                float64
	pop, seqLen, gens, k         int
	jobWorkers, jobThreads       int
	queueWorkers, checkpointEvry int
	// The open-loop score stream: novel sequences of scoreLen residues
	// scored against the target and the job's non-targets, one due every
	// 1/scoreRate seconds from t0 until the batch is done (and at least
	// minScores sent), over at most scoreConns connections.
	scoreRate  float64
	scoreLen   int
	minScores  int
	scoreConns int
}

// serviceMix: fixed-shape design jobs (the writes: job store, journal,
// checkpoints) compete with interactive /v1/score reads for the CPU.
// The job shape and the 2 queue workers are the "heavy" row measured in
// docs/CAPACITY.md; the checkpoint cadence is insipsd's default; the
// batch size per second and the score rate were measured on this shape
// (perfbench/README.md).
var serviceMix = serviceShape{
	proteome:      yeastgen.DefaultParams(),
	jobsPerSecond: 0.8, pop: 100, seqLen: 60, gens: 20, k: 10,
	jobWorkers: 1, jobThreads: 1, queueWorkers: 2, checkpointEvry: 25,
	scoreRate: 20, scoreLen: 130, minScores: 100, scoreConns: 2,
}

func (s serviceShape) sized(cfg config) (serviceShape, int) {
	if cfg.tiny {
		s.proteome = yeastgen.TestParams()
		s.pop, s.seqLen, s.gens, s.minScores = 20, 60, 3, 10
		return s, 2
	}
	return s, max(2, int(math.Round(float64(cfg.seconds)*s.jobsPerSecond)))
}

func (s serviceShape) describe(jobs int) string {
	return fmt.Sprintf("shape    proteome %d+%d proteins (yeastgen seed %d); insipsd -store-dir -journal-dir, %d queue workers, checkpoint every %d; "+
		"closed batch of %d jobs (pop %d, len %d, %d generations, k %d, %dx%d) at t0; open-loop /v1/score at %.0f/s (len %d vs %d proteins, %d connections, from due time)",
		s.proteome.NumProteins, s.proteome.WetlabTargets, s.proteome.Seed, s.queueWorkers, s.checkpointEvry,
		jobs, s.pop, s.seqLen, s.gens, s.k, s.jobWorkers, s.jobThreads, s.scoreRate, s.scoreLen, s.k+1, s.scoreConns)
}

// service is one running insipsd process over a generated proteome.
type service struct {
	dir     string
	pr      *yeastgen.Proteome
	addr    string
	cmd     *exec.Cmd
	exited  chan struct{}
	waitErr error
}

// startService generates the proteome, writes it where insipsd reads
// it, starts insipsd and waits until /healthz answers.
func startService(cfg config, s serviceShape, jobs int) (*service, error) {
	pr, err := yeastgen.Generate(s.proteome)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.work, "service-mix-")
	if err != nil {
		return nil, err
	}
	svc := &service{dir: dir, pr: pr}
	fasta, tsv := filepath.Join(dir, "proteome.fasta"), filepath.Join(dir, "interactions.tsv")
	if err := seq.SaveFASTAFile(fasta, pr.Proteins); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	if err := pr.Graph.SaveTSVFile(tsv); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	svc.addr = ln.Addr().String()
	ln.Close()
	logf, err := os.Create(filepath.Join(dir, "insipsd.log"))
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	defer logf.Close()
	svc.cmd = exec.Command(cfg.insipsd, "-addr", svc.addr, "-proteome", fasta, "-graph", tsv,
		"-store-dir", filepath.Join(dir, "store"), "-journal-dir", filepath.Join(dir, "journal"),
		"-queue-workers", strconv.Itoa(s.queueWorkers), "-queue-cap", strconv.Itoa(jobs+4),
		"-checkpoint-every", strconv.Itoa(s.checkpointEvry))
	svc.cmd.Stdout, svc.cmd.Stderr = logf, logf
	if err := svc.cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	svc.exited = make(chan struct{})
	go func() {
		svc.waitErr = svc.cmd.Wait()
		close(svc.exited)
	}()
	deadline := time.Now().Add(time.Minute)
	client := &http.Client{Timeout: time.Second}
	for {
		resp, err := client.Get("http://" + svc.addr + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return svc, nil
			}
		}
		select {
		case <-svc.exited:
			err := fmt.Errorf("insipsd exited during start-up (%v): %s", svc.waitErr, svc.logTail())
			os.RemoveAll(dir)
			return nil, err
		case <-time.After(5 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			svc.stop()
			return nil, fmt.Errorf("insipsd /healthz did not answer within a minute")
		}
	}
}

func (svc *service) logTail() string {
	data, _ := os.ReadFile(filepath.Join(svc.dir, "insipsd.log"))
	if len(data) > 2000 {
		data = data[len(data)-2000:]
	}
	return string(data)
}

// stop drains insipsd with SIGTERM, kills it if it has not exited after
// 30 s, waits for it and removes its directory.
func (svc *service) stop() {
	_ = svc.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-svc.exited:
	case <-time.After(30 * time.Second):
		_ = svc.cmd.Process.Kill()
		<-svc.exited
	}
	os.RemoveAll(svc.dir)
}

// scoreCall is one open-loop /v1/score request.
type scoreCall struct {
	query     seq.Sequence
	due, sent time.Time
	done      time.Time
	status    int
	resp      server.ScoreResponse
	err       error
}

// jobCall is one design job of the batch.
type jobCall struct {
	req         server.DesignRequest
	submit, ack time.Time
	status      int
	id          string
	view        server.JobJSON
}

// chimera splices random fragments of natural proteins into a novel
// sequence of length n, so the score stream exercises real window
// matches rather than mostly empty profiles.
func chimera(rng *rand.Rand, pr *yeastgen.Proteome, name string, n int) (seq.Sequence, error) {
	var body []byte
	for len(body) < n {
		p := pr.Proteins[rng.Intn(len(pr.Proteins))]
		frag := min(n/3+rng.Intn(n/3+1), p.Len())
		start := rng.Intn(p.Len() - frag + 1)
		body = append(body, p.Residues()[start:start+frag]...)
	}
	return seq.New(name, string(body[:n]))
}

// postJSON posts body and decodes a 2xx answer into out; any other
// status is an error.
func postJSON(client *http.Client, url string, body, out any) error {
	raw, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, out)
}

func getJSON(client *http.Client, url string, out any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.Unmarshal(data, out)
}

// stageTotals reads one stage's summed seconds and count from insipsd's
// /metrics page.
func stageTotals(client *http.Client, base, stage string) (sum float64, count int64, err error) {
	resp, err := client.Get(base + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	sumKey := fmt.Sprintf("insipsd_stage_seconds_sum{stage=%q} ", stage)
	countKey := fmt.Sprintf("insipsd_stage_seconds_count{stage=%q} ", stage)
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, sumKey); ok {
			sum, _ = strconv.ParseFloat(v, 64)
		} else if v, ok := strings.CutPrefix(line, countKey); ok {
			count, _ = strconv.ParseInt(v, 10, 64)
		}
	}
	return sum, count, sc.Err()
}

func runServiceMix(cfg config) (*outcome, error) {
	shape, jobs := serviceMix.sized(cfg)
	svc, setupTimes, err := medianSetup(repsFor(cfg), func() (*service, error) { return startService(cfg, shape, jobs) },
		func(s *service) { s.stop() })
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			svc.stop()
		}
	}()
	o := &outcome{}
	setupS := median(setupTimes)
	o.notef("setup    %.3f s, median of %.3f", setupS, setupTimes)
	o.notef("%s", shape.describe(jobs))
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	base := "http://" + svc.addr
	pr := svc.pr
	target := pr.WetlabTargetIDs()[0]
	ids := []int{target}
	for id := 0; len(ids) < shape.k+1; id++ {
		if id != target {
			ids = append(ids, id)
		}
	}
	names := make([]string, len(ids))
	for i, id := range ids {
		names[i] = pr.Graph.Name(id)
	}
	rng := rand.New(rand.NewSource(cfg.seed))

	// Jobs: submitted back to back over one connection, then polled.
	control := &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxConnsPerHost: 1}}
	calls := make([]*jobCall, jobs)
	for i := range calls {
		calls[i] = &jobCall{req: server.DesignRequest{
			Target: names[0], MaxNonTargets: shape.k, Population: shape.pop, SeqLen: shape.seqLen,
			Seed: int64(i) + 1, MinGenerations: shape.gens, MaxGenerations: shape.gens,
			Workers: shape.jobWorkers, Threads: shape.jobThreads,
		}}
	}
	var scores []*scoreCall
	batchDone := make(chan struct{})
	t0 := time.Now()

	// The open-loop score stream: request i is due at t0 + i/rate
	// whatever happened to earlier ones; at most scoreConns are in
	// flight, so a stall shows as lateness and as latency from due time.
	scoreClient := &http.Client{Timeout: 60 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: shape.scoreConns, MaxIdleConnsPerHost: shape.scoreConns}}
	sem := make(chan struct{}, shape.scoreConns)
	var inflight sync.WaitGroup
	streamDone := make(chan struct{})
	go func() {
		defer close(streamDone)
		for i := 0; ; i++ {
			due := t0.Add(time.Duration(float64(i) / shape.scoreRate * float64(time.Second)))
			if i >= shape.minScores {
				select {
				case <-batchDone:
					return
				default:
				}
			}
			time.Sleep(time.Until(due))
			q, err := chimera(rng, pr, fmt.Sprintf("novel%05d", i), shape.scoreLen)
			if err != nil {
				panic(err) // natural residues are always valid
			}
			c := &scoreCall{query: q, due: due}
			scores = append(scores, c)
			sem <- struct{}{}
			c.sent = time.Now()
			inflight.Add(1)
			go func() {
				defer inflight.Done()
				defer func() { <-sem }()
				c.err = postJSON(scoreClient, base+"/v1/score", server.ScoreRequest{
					Query: &server.SequenceJSON{Name: c.query.Name(), Residues: c.query.Residues()}, Against: names,
				}, &c.resp)
				c.done = time.Now()
				tr.add("loadgen.score", c.sent, c.done)
			}()
		}
	}()

	for _, c := range calls {
		c.submit = time.Now()
		err := postJSON(control, base+"/v1/designs", c.req, &c.view)
		c.ack = time.Now()
		tr.add("loadgen.submit", c.submit, c.ack)
		if err != nil {
			o.fail("submit: %v", err)
			continue
		}
		c.id = c.view.ID
	}
	deadline := t0.Add(150 * time.Second)
	for {
		var list []server.JobJSON
		if err := getJSON(control, base+"/v1/designs", &list); err != nil {
			close(batchDone)
			return nil, err
		}
		byID := map[string]server.JobJSON{}
		for _, j := range list {
			byID[j.ID] = j
		}
		pending := 0
		for _, c := range calls {
			if c.id == "" {
				continue
			}
			c.view = byID[c.id]
			switch c.view.State {
			case server.JobDone, server.JobFailed, server.JobCancelled:
			default:
				pending++
			}
		}
		if pending == 0 {
			break
		}
		if time.Now().After(deadline) {
			close(batchDone)
			return nil, fmt.Errorf("%d design jobs unfinished after 150s", pending)
		}
		time.Sleep(100 * time.Millisecond)
	}
	close(batchDone)
	<-streamDone
	inflight.Wait()

	rss, err := peakRSSMB(strconv.Itoa(svc.cmd.Process.Pid))
	if err != nil {
		return nil, err
	}
	ckptSum, ckptCount, err := stageTotals(control, base, obs.StageCheckpoint)
	if err != nil {
		return nil, err
	}
	busySum, busyCount, err := stageTotals(control, base, obs.StageEvalTask)
	if err != nil {
		return nil, err
	}
	var journalBytes int64
	_ = filepath.Walk(filepath.Join(svc.dir, "journal"), func(path string, fi os.FileInfo, err error) error {
		if err == nil && fi.Name() == filepath.Base(obs.JournalPath("")) {
			journalBytes += fi.Size()
		}
		return nil
	})
	svc.stop()
	stopped = true

	// Jobs.
	var makespan time.Duration
	var turnaround, queueWait, jobRun, submitMS []float64
	gens := 0
	for _, c := range calls {
		submitMS = append(submitMS, ms(c.ack.Sub(c.submit)))
		if c.id == "" {
			continue
		}
		if c.view.State != server.JobDone || c.view.Started == nil || c.view.Finished == nil {
			o.fail("job %s ended %s: %s", c.id, c.view.State, c.view.Error)
			continue
		}
		fin := *c.view.Finished
		makespan = max(makespan, fin.Sub(t0))
		turnaround = append(turnaround, fin.Sub(c.submit).Seconds())
		queueWait = append(queueWait, ms(c.view.Started.Sub(c.view.Created)))
		jobRun = append(jobRun, c.view.Finished.Sub(*c.view.Started).Seconds())
		gens += c.view.Generations
	}

	// Scores: latency from due time; every answer must equal the
	// engine's ScoreMany bit for bit.
	eng, err := pipe.New(pr.Proteins, pr.Graph, pipe.Config{}, 0)
	if err != nil {
		return nil, err
	}
	var latency, kernel, overhead, late []float64
	failedScores, matched := 0, 0
	for _, c := range scores {
		late = append(late, ms(c.sent.Sub(c.due)))
		if c.err != nil {
			failedScores++
			o.fail("score %s: %v", c.query.Name(), c.err)
			continue
		}
		latency = append(latency, ms(c.done.Sub(c.due)))
		kernel = append(kernel, c.resp.ElapsedMS)
		overhead = append(overhead, ms(c.done.Sub(c.sent))-c.resp.ElapsedMS)
		want := eng.ScoreMany(c.query, ids, 1)
		if len(c.resp.Scores) != len(want) {
			o.fail("score %s: %d scores, want %d", c.query.Name(), len(c.resp.Scores), len(want))
			continue
		}
		ok := true
		for i, ps := range c.resp.Scores {
			if ps.Name != names[i] || math.Float64bits(ps.Score) != math.Float64bits(want[i]) {
				o.fail("score %s vs %s: got %v, ScoreMany gives %v", c.query.Name(), names[i], ps.Score, want[i])
				ok = false
				break
			}
		}
		if ok {
			matched++
		}
	}
	o.Attempted = len(scores) + len(calls)
	o.notef("check    %d of %d /v1/score answers equal Engine.ScoreMany bit for bit; %d of %d jobs done",
		matched, len(scores), len(turnaround), len(calls))
	if len(turnaround) == 0 || len(latency) == 0 {
		return o, nil
	}

	o.set("setup_s", "s", setupS)
	o.set("gens_per_s", "1/s", float64(gens)/makespan.Seconds())
	o.set("score_p50_ms", "ms", quantile(latency, 0.5))
	o.set("score_p90_ms", "ms", quantile(latency, 0.9))
	o.set("job_turnaround_s", "s", median(turnaround))
	o.set("jobs_per_s", "1/s", float64(len(calls))/makespan.Seconds())
	o.set("peak_rss_mb", "MB", rss)

	o.set("server.score_kernel_ms", "ms", median(kernel))
	o.set("server.http_overhead_ms", "ms", median(overhead))
	o.set("server.submit_ms", "ms", median(submitMS))
	o.set("server.queue_wait_ms", "ms", median(queueWait))
	o.set("server.job_run_s", "s", median(jobRun))
	o.set("loadgen.late_ms_max", "ms", quantile(late, 1))
	o.set("loadgen.sent", "count", float64(len(scores)))
	o.set("loadgen.failed", "count", float64(failedScores))
	o.set("pipe.score_busy_ms", "ms", busySum*1000/float64(max(gens, 1)))
	pairs := float64(busyCount * int64(shape.k+1))
	o.set("pipe.pairs", "count", pairs)
	if busySum > 0 {
		o.set("pipe.pairs_per_s", "1/s", pairs/busySum)
	}
	if ckptCount > 0 {
		o.set("obs.checkpoint_ms", "ms", ckptSum*1000/float64(ckptCount))
	}
	o.set("obs.journal_bytes_per_gen", "B", float64(journalBytes)/float64(max(gens, 1)))
	o.notef("stream   open loop at %.0f/s: %d sent over %.1fs, latency timed from due time; batch makespan %.2fs",
		shape.scoreRate, len(scores), scores[len(scores)-1].due.Sub(t0).Seconds(), makespan.Seconds())
	if tr != nil {
		tr.finish()
		if err := tr.write(filepath.Join(cfg.work, fmt.Sprintf("trace-service-mix-seed%d.json", cfg.seed))); err != nil {
			return nil, err
		}
	}
	return o, nil
}
