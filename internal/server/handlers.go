package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/ga"
	"repro/internal/jobstore"
	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/seq"
)

// ---- JSON wire types ----

// ScoreRequest asks for PIPE scores of one query against a batch of
// proteome proteins. Exactly one of Query (a novel sequence) or
// QueryName (a proteome protein) must be set. Against lists proteome
// protein names; AgainstAll scores the whole proteome instead.
type ScoreRequest struct {
	Query      *SequenceJSON `json:"query,omitempty"`
	QueryName  string        `json:"query_name,omitempty"`
	Against    []string      `json:"against,omitempty"`
	AgainstAll bool          `json:"against_all,omitempty"`
	// Threads is this request's thread budget for ScoreMany, clamped to
	// the server's MaxScoreThreads. 0 means the server maximum.
	Threads int `json:"threads,omitempty"`
}

// SequenceJSON is a named amino-acid sequence on the wire.
type SequenceJSON struct {
	Name     string `json:"name"`
	Residues string `json:"residues"`
}

// PairScore is one scored pair.
type PairScore struct {
	Name  string  `json:"name"`
	Score float64 `json:"score"`
}

// ScoreResponse returns the batch scores.
type ScoreResponse struct {
	Query     string      `json:"query"`
	Scores    []PairScore `json:"scores"`
	Threads   int         `json:"threads"`
	ElapsedMS float64     `json:"elapsed_ms"`
}

// DesignRequest submits an asynchronous design campaign. Zero-valued
// fields take service defaults (modest sizes suited to interactive use;
// the paper's production parameters are far larger).
type DesignRequest struct {
	Target        string   `json:"target"`
	NonTargets    []string `json:"non_targets,omitempty"`
	MaxNonTargets int      `json:"max_non_targets,omitempty"` // default 25, used when NonTargets is empty

	Population     int     `json:"population,omitempty"`      // default 100
	SeqLen         int     `json:"seq_len,omitempty"`         // default 120
	PCrossover     float64 `json:"p_crossover,omitempty"`     // default 0.5
	PMutate        float64 `json:"p_mutate,omitempty"`        // default 0.4
	PCopy          float64 `json:"p_copy,omitempty"`          // default 0.1
	PMutateAA      float64 `json:"p_mutate_aa,omitempty"`     // default 0.05
	Seed           int64   `json:"seed,omitempty"`            // default 1
	MinGenerations int     `json:"min_generations,omitempty"` // default 20
	StallGens      int     `json:"stall_generations,omitempty"`
	MaxGenerations int     `json:"max_generations,omitempty"` // default 100
	WarmStart      *bool   `json:"warm_start,omitempty"`      // default true
	Workers        int     `json:"workers,omitempty"`         // evaluator workers, default 2
	Threads        int     `json:"threads,omitempty"`         // threads per worker, default 2
	// Shards statically partitions each generation over this many
	// independent evaluation pools (each sized workers×threads).
	// 0 or 1 evaluates on a single pool. Scores are unaffected.
	Shards int `json:"shards,omitempty"`
	// NoFitnessCache disables the service-wide fitness memo cache for
	// this job (every candidate is re-scored; ablation/debugging knob).
	NoFitnessCache bool `json:"no_fitness_cache,omitempty"`
	// Surrogate enables the online surrogate pre-scorer: after warmup,
	// only the predicted top fraction of each generation gets a full PIPE
	// evaluation. SurrogateTopK (default 0.10, range (0,1]) is that
	// fraction; SurrogateExplore (default 0.05, range [0,1]) is the extra
	// random exploration quota. Both require Surrogate.
	Surrogate        bool    `json:"surrogate,omitempty"`
	SurrogateTopK    float64 `json:"surrogate_topk,omitempty"`
	SurrogateExplore float64 `json:"surrogate_explore,omitempty"`
	// Strategy selects the search strategy driving the design loop:
	// "ga" (default), "beam", "anneal" or "landscape" — see package
	// search. The strategy is journaled and stamped into checkpoints, so
	// a job resumed after replica handoff fails fast if its checkpoint
	// was written under a different strategy. The per-strategy knobs
	// below require their strategy; zero values take the package
	// defaults (beam: width 8, expand 6, elite-extra 6; anneal: t0 0.02,
	// cooling 0.995; landscape: eps 0.01, patience 20).
	Strategy          string  `json:"strategy,omitempty"`
	BeamWidth         int     `json:"beam_width,omitempty"`
	BeamExpand        int     `json:"beam_expand,omitempty"`
	BeamEliteExtra    int     `json:"beam_elite_extra,omitempty"`
	AnnealT0          float64 `json:"anneal_t0,omitempty"`
	AnnealCooling     float64 `json:"anneal_cooling,omitempty"`
	LandscapeEps      float64 `json:"landscape_eps,omitempty"`
	LandscapePatience int     `json:"landscape_patience,omitempty"`
	// WindowCache bounds the engine's shared window-similarity cache in
	// entries (~100 bytes each); 0 disables the cache, nil keeps the
	// service default. Note the engine cache shares one engine per
	// proteome/index fingerprint and WindowCache is not part of that
	// fingerprint: the first job to build an engine fixes its cache
	// size, and later jobs with a different WindowCache reuse that
	// engine unchanged. Purely a performance knob — scores are
	// identical with or without the cache.
	WindowCache *int `json:"window_cache,omitempty"`
}

// JobJSON is the observable state of a design job.
type JobJSON struct {
	ID          string           `json:"id"`
	State       JobState         `json:"state"`
	Target      string           `json:"target"`
	Strategy    string           `json:"strategy"`
	NonTargets  int              `json:"non_targets"`
	Created     time.Time        `json:"created"`
	Started     *time.Time       `json:"started,omitempty"`
	Finished    *time.Time       `json:"finished,omitempty"`
	Generations int              `json:"generations"`
	Curve       []CurvePointJSON `json:"curve,omitempty"`
	Best        *DetailJSON      `json:"best,omitempty"`
	Sequence    string           `json:"sequence,omitempty"`
	FASTA       string           `json:"fasta,omitempty"`
	Error       string           `json:"error,omitempty"`
}

// CurvePointJSON is one generation of the learning curve (Figure 7).
type CurvePointJSON struct {
	Generation   int     `json:"generation"`
	Fitness      float64 `json:"fitness"`
	Target       float64 `json:"target"`
	MaxNonTarget float64 `json:"max_non_target"`
	AvgNonTarget float64 `json:"avg_non_target"`
}

// DetailJSON is the score decomposition of the best design.
type DetailJSON struct {
	Fitness      float64 `json:"fitness"`
	Target       float64 `json:"target"`
	MaxNonTarget float64 `json:"max_non_target"`
	AvgNonTarget float64 `json:"avg_non_target"`
}

// ProgressJSON is the GET /v1/designs/{id}/progress body: the tail of
// the job's run-journal stream. Generations counts every record the job
// has produced; Records holds the most recent ones (bounded by the
// server's in-memory ring and the request's ?n= parameter).
type ProgressJSON struct {
	ID          string                 `json:"id"`
	State       JobState               `json:"state"`
	Generations int                    `json:"generations"`
	Records     []obs.GenerationRecord `json:"records"`
}

// HealthJSON is the /healthz body.
type HealthJSON struct {
	Status        string  `json:"status"` // "ok" or "draining"
	UptimeSeconds float64 `json:"uptime_seconds"`
	Proteins      int     `json:"proteins"`
	Interactions  int     `json:"interactions"`
	QueueDepth    int     `json:"queue_depth"`
	Running       int     `json:"running"`
	EnginesCached int     `json:"engines_cached"`
}

type errorJSON struct {
	Error string `json:"error"`
}

// ---- helpers ----

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorJSON{Error: fmt.Sprintf(format, args...)})
}

// maxBodyBytes bounds a JSON request body. The largest legitimate body,
// a score request naming proteins, is a few KiB per thousand names.
const maxBodyBytes = 1 << 20

// decodeJSON decodes a bounded request body into v, answering 413 for
// bodies over maxBodyBytes and 400 for malformed ones.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", maxBodyBytes)
			return false
		}
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	return true
}

func (s *Server) clampThreads(n int) int {
	if n <= 0 || n > s.cfg.MaxScoreThreads {
		return s.cfg.MaxScoreThreads
	}
	return n
}

// resolveNames maps proteome protein names to IDs, reporting the first
// unknown name.
func (s *Server) resolveNames(names []string) ([]int, error) {
	ids := make([]int, len(names))
	for i, name := range names {
		id, ok := s.cfg.Graph.ID(strings.TrimSpace(name))
		if !ok {
			return nil, fmt.Errorf("protein %q not in the proteome", name)
		}
		ids[i] = id
	}
	return ids, nil
}

// ---- handlers ----

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	g := s.jobs.gauges()
	status := "ok"
	code := http.StatusOK
	if g.Draining {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, HealthJSON{
		Status:        status,
		UptimeSeconds: time.Since(s.metrics.start).Seconds(),
		Proteins:      len(s.cfg.Proteins),
		Interactions:  s.cfg.Graph.NumEdges(),
		QueueDepth:    g.QueueDepth,
		Running:       g.Running,
		EnginesCached: s.engines.size(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	g := s.jobs.gauges()
	g.CacheSize = s.engines.size()
	s.metrics.render(w, g)
	s.cfg.Stages.WritePrometheus(w, "insipsd_stage")
	for _, extra := range s.cfg.ExtraMetrics {
		extra(w)
	}
}

func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	var req ScoreRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	engine, err := s.engines.get(s.cfg.Pipe)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "engine: %v", err)
		return
	}

	var query seq.Sequence
	switch {
	case req.Query != nil && req.QueryName != "":
		writeError(w, http.StatusBadRequest, "set query or query_name, not both")
		return
	case req.Query != nil:
		query, err = seq.New(req.Query.Name, req.Query.Residues)
		if err != nil {
			writeError(w, http.StatusBadRequest, "bad query sequence: %v", err)
			return
		}
	case req.QueryName != "":
		id, ok := s.cfg.Graph.ID(req.QueryName)
		if !ok {
			writeError(w, http.StatusBadRequest, "protein %q not in the proteome", req.QueryName)
			return
		}
		query = s.cfg.Proteins[id]
	default:
		writeError(w, http.StatusBadRequest, "need query (novel sequence) or query_name (proteome protein)")
		return
	}

	var ids []int
	var names []string
	if req.AgainstAll {
		ids = make([]int, len(s.cfg.Proteins))
		names = make([]string, len(s.cfg.Proteins))
		for i := range ids {
			ids[i] = i
			names[i] = s.cfg.Graph.Name(i)
		}
	} else {
		if len(req.Against) == 0 {
			writeError(w, http.StatusBadRequest, "need against (protein names) or against_all")
			return
		}
		names = req.Against
		if ids, err = s.resolveNames(req.Against); err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}

	threads := s.clampThreads(req.Threads)
	begin := time.Now()
	scores := engine.ScoreMany(query, ids, threads)
	elapsed := time.Since(begin)

	resp := ScoreResponse{
		Query:     query.Name(),
		Scores:    make([]PairScore, len(ids)),
		Threads:   threads,
		ElapsedMS: float64(elapsed) / float64(time.Millisecond),
	}
	for i, sc := range scores {
		resp.Scores[i] = PairScore{Name: names[i], Score: sc}
	}
	writeJSON(w, http.StatusOK, resp)
}

// specFromRequest validates a design request and resolves it into a
// runnable spec, applying service defaults.
func (s *Server) specFromRequest(req DesignRequest) (designSpec, error) {
	if req.Target == "" {
		return designSpec{}, fmt.Errorf("need target (protein name)")
	}
	targetID, ok := s.cfg.Graph.ID(req.Target)
	if !ok {
		return designSpec{}, fmt.Errorf("target %q not in the proteome", req.Target)
	}
	var ntIDs []int
	if len(req.NonTargets) > 0 {
		var err error
		if ntIDs, err = s.resolveNames(req.NonTargets); err != nil {
			return designSpec{}, err
		}
	} else {
		maxNT := req.MaxNonTargets
		if maxNT <= 0 {
			maxNT = 25
		}
		for id := 0; id < s.cfg.Graph.NumProteins() && len(ntIDs) < maxNT; id++ {
			if id != targetID {
				ntIDs = append(ntIDs, id)
			}
		}
	}

	def := func(v, d int) int {
		if v <= 0 {
			return d
		}
		return v
	}
	deff := func(v, d float64) float64 {
		if v <= 0 {
			return d
		}
		return v
	}
	params := ga.Params{
		PopulationSize:  def(req.Population, 100),
		SeqLen:          def(req.SeqLen, 120),
		PCrossover:      deff(req.PCrossover, 0.5),
		PMutate:         deff(req.PMutate, 0.4),
		PCopy:           deff(req.PCopy, 0.1),
		PMutateAA:       deff(req.PMutateAA, 0.05),
		CrossoverMargin: 10,
		Seed:            req.Seed,
	}
	if params.Seed == 0 {
		params.Seed = 1
	}
	warm := true
	if req.WarmStart != nil {
		warm = *req.WarmStart
	}
	spec := designSpec{
		TargetID:     targetID,
		TargetName:   req.Target,
		NonTargetIDs: ntIDs,
		Pipe:         s.cfg.Pipe,
		GA:           params,
		Cluster: cluster.Config{
			Workers:          def(req.Workers, 2),
			ThreadsPerWorker: def(req.Threads, 2),
		},
		Termination: ga.Termination{
			MinGenerations:   def(req.MinGenerations, 20),
			StallGenerations: def(req.StallGens, 50),
			MaxGenerations:   def(req.MaxGenerations, 100),
		},
		WarmStart:           warm,
		DisableFitnessCache: req.NoFitnessCache,
		Shards:              req.Shards,
		Surrogate:           req.Surrogate,
		SurrogateTopK:       req.SurrogateTopK,
		SurrogateExplore:    req.SurrogateExplore,
	}
	if spec.Shards < 0 || spec.Shards > maxShards {
		return designSpec{}, fmt.Errorf("shards %d out of range [0, %d]", spec.Shards, maxShards)
	}
	if !spec.Surrogate && (req.SurrogateTopK != 0 || req.SurrogateExplore != 0) {
		return designSpec{}, fmt.Errorf("surrogate_topk/surrogate_explore require surrogate")
	}
	if spec.Surrogate {
		if spec.SurrogateTopK == 0 {
			spec.SurrogateTopK = 0.10
		}
		if spec.SurrogateExplore == 0 {
			spec.SurrogateExplore = 0.05
		}
		if spec.SurrogateTopK < 0 || spec.SurrogateTopK > 1 || spec.SurrogateExplore < 0 || spec.SurrogateExplore > 1 {
			return designSpec{}, fmt.Errorf("surrogate_topk must be in (0,1] and surrogate_explore in [0,1]")
		}
	}
	if req.WindowCache != nil {
		if *req.WindowCache < 0 {
			return designSpec{}, fmt.Errorf("window_cache must be >= 0 (got %d); use 0 to disable the cache", *req.WindowCache)
		}
		// pipe.Config reserves 0 for "default" and negative for
		// "disabled"; the API exposes the friendlier 0-disables form.
		spec.Pipe.WindowCacheEntries = *req.WindowCache
		if *req.WindowCache == 0 {
			spec.Pipe.WindowCacheEntries = -1
		}
	}
	if spec.GA.SeqLen < 2*spec.GA.CrossoverMargin+2 {
		return designSpec{}, fmt.Errorf("seq_len %d too short: need >= %d",
			spec.GA.SeqLen, 2*spec.GA.CrossoverMargin+2)
	}
	spec.Search = search.Config{Strategy: req.Strategy}
	switch spec.Search.Name() {
	case search.StrategyGA, search.StrategyBeam, search.StrategyAnneal, search.StrategyLandscape:
	default:
		return designSpec{}, fmt.Errorf("strategy %q unknown: must be one of %v", req.Strategy, search.Strategies())
	}
	if spec.Search.Name() != search.StrategyBeam && (req.BeamWidth != 0 || req.BeamExpand != 0 || req.BeamEliteExtra != 0) {
		return designSpec{}, fmt.Errorf("beam_width/beam_expand/beam_elite_extra require strategy \"beam\"")
	}
	if spec.Search.Name() != search.StrategyAnneal && (req.AnnealT0 != 0 || req.AnnealCooling != 0) {
		return designSpec{}, fmt.Errorf("anneal_t0/anneal_cooling require strategy \"anneal\"")
	}
	if spec.Search.Name() != search.StrategyLandscape && (req.LandscapeEps != 0 || req.LandscapePatience != 0) {
		return designSpec{}, fmt.Errorf("landscape_eps/landscape_patience require strategy \"landscape\"")
	}
	switch spec.Search.Name() {
	case search.StrategyBeam:
		spec.Search.Beam = search.BeamConfig{Width: req.BeamWidth, Expand: req.BeamExpand, EliteExtra: req.BeamEliteExtra}
	case search.StrategyAnneal:
		spec.Search.Anneal = search.AnnealConfig{T0: req.AnnealT0, Cooling: req.AnnealCooling}
	case search.StrategyLandscape:
		spec.Search.Landscape = search.LandscapeConfig{Eps: req.LandscapeEps, Patience: req.LandscapePatience}
	}
	if err := spec.Search.Validate(); err != nil {
		return designSpec{}, err
	}
	return spec, nil
}

// activeJobs counts a tenant's queued+running jobs — cluster-wide in
// store mode (the shared store is the truth), local otherwise.
func (s *Server) activeJobs(tenant string) int {
	if s.store != nil {
		st, err := s.store.Stats()
		if err != nil {
			return 0
		}
		return st.ByTenant[tenant]
	}
	n := 0
	for _, snap := range s.jobs.list() {
		if snap.Tenant == tenant && !snap.State.Terminal() {
			n++
		}
	}
	return n
}

func (s *Server) handleDesignCreate(w http.ResponseWriter, r *http.Request) {
	var req DesignRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	spec, err := s.specFromRequest(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	tenant := tenantFrom(r)
	if cap := tenant.MaxActiveJobs; cap > 0 {
		if active := s.activeJobs(tenant.Name); active >= cap {
			s.metrics.admissionRejected.Add(1)
			w.Header().Set("Retry-After", "5")
			writeError(w, http.StatusTooManyRequests,
				"tenant %q has %d active jobs (cap %d)", tenant.Name, active, cap)
			return
		}
	}

	if s.store != nil {
		// Mirror the in-memory queue-full backpressure: bound the
		// cluster-wide pending backlog by QueueCapacity.
		if st, err := s.store.Stats(); err == nil && st.ByState[jobstore.Pending] >= s.cfg.QueueCapacity {
			s.metrics.jobsRejected.Add(1)
			w.Header().Set("Retry-After", "5")
			writeError(w, http.StatusTooManyRequests, "%v", ErrQueueFull)
			return
		}
		// Durable mode: the job is persisted and claimed by whichever
		// replica fair-share selects it — possibly not this one.
		raw, err := json.Marshal(req)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		rec, err := s.store.Create(tenant.Name, raw)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		s.metrics.jobsAccepted.Add(1)
		writeJSON(w, http.StatusAccepted, s.storeJobJSON(rec, false))
		return
	}

	accepted, err := s.jobs.submit(spec, tenant.Name)
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrDraining):
		w.Header().Set("Retry-After", "5")
		writeError(w, http.StatusTooManyRequests, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	writeJSON(w, http.StatusAccepted, renderJobJSON(accepted, false))
}

func (s *Server) handleDesignList(w http.ResponseWriter, r *http.Request) {
	tenant := tenantFrom(r)
	out := []JobJSON{}
	if s.store != nil {
		recs, err := s.store.List()
		if err != nil {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		for _, rec := range recs {
			if !s.canSee(tenant, rec.Tenant) {
				continue
			}
			// Prefer the live local mirror: it carries the in-flight
			// curve and result the store only sees at finish.
			if j, ok := s.jobs.get(rec.ID); ok {
				out = append(out, renderJobJSON(j.snapshot(), false))
			} else {
				out = append(out, s.storeJobJSON(rec, false))
			}
		}
		writeJSON(w, http.StatusOK, out)
		return
	}
	for _, snap := range s.jobs.list() {
		if s.canSee(tenant, snap.Tenant) {
			out = append(out, renderJobJSON(snap, false))
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// lookupJob resolves a job ID for a tenant: the live local job when this
// replica runs (or ran) it, else the store record. A job the tenant may
// not see is reported as not found (no existence oracle).
func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) (*job, jobstore.Record, bool) {
	id := r.PathValue("id")
	tenant := tenantFrom(r)
	if j, ok := s.jobs.get(id); ok {
		j.mu.Lock()
		jobTenant := j.tenant
		j.mu.Unlock()
		if !s.canSee(tenant, jobTenant) {
			writeError(w, http.StatusNotFound, "no job %q", id)
			return nil, jobstore.Record{}, false
		}
		return j, jobstore.Record{}, true
	}
	if s.store != nil {
		rec, err := s.store.Get(id)
		if err == nil {
			if !s.canSee(tenant, rec.Tenant) {
				writeError(w, http.StatusNotFound, "no job %q", id)
				return nil, jobstore.Record{}, false
			}
			return nil, rec, true
		}
	}
	writeError(w, http.StatusNotFound, "no job %q", id)
	return nil, jobstore.Record{}, false
}

func (s *Server) handleDesignGet(w http.ResponseWriter, r *http.Request) {
	j, rec, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	if j != nil {
		writeJSON(w, http.StatusOK, renderJobJSON(j.snapshot(), true))
		return
	}
	writeJSON(w, http.StatusOK, s.storeJobJSON(rec, true))
}

func (s *Server) handleDesignProgress(w http.ResponseWriter, r *http.Request) {
	j, rec, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	n := 32
	if raw := r.URL.Query().Get("n"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v <= 0 {
			writeError(w, http.StatusBadRequest, "bad n %q: want a positive integer", raw)
			return
		}
		n = v
	}
	if j == nil {
		// The job lives on another replica (or nobody claimed it yet):
		// serve the tail of its on-disk journal.
		recs := s.journalRecords(rec.ID)
		total := len(recs)
		if len(recs) > n {
			recs = recs[len(recs)-n:]
		}
		writeJSON(w, http.StatusOK, ProgressJSON{
			ID:          rec.ID,
			State:       localState(rec.State),
			Generations: total,
			Records:     recs,
		})
		return
	}
	recs, total := j.progressTail(n)
	if recs == nil {
		recs = []obs.GenerationRecord{}
	}
	j.mu.Lock()
	state := j.state
	j.mu.Unlock()
	writeJSON(w, http.StatusOK, ProgressJSON{
		ID:          j.id,
		State:       state,
		Generations: total,
		Records:     recs,
	})
}

// journalRecords reads a job's journal tail from disk (empty when the
// job has no journal yet).
func (s *Server) journalRecords(id string) []obs.GenerationRecord {
	if s.cfg.JournalDir == "" {
		return []obs.GenerationRecord{}
	}
	recs, err := obs.ReadJournal(obs.JournalPath(filepath.Join(s.cfg.JournalDir, id)))
	if err != nil || recs == nil {
		return []obs.GenerationRecord{}
	}
	return recs
}

func (s *Server) handleDesignCancel(w http.ResponseWriter, r *http.Request) {
	j, _, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	if s.store != nil {
		id := r.PathValue("id")
		// Flag the store record first so the owning replica (this one or
		// a peer) observes the request at its next lease renewal; a
		// pending job cancels immediately. Terminal records pass through
		// unchanged, matching the idempotent in-memory behavior.
		if _, err := s.store.RequestCancel(id); err != nil && !errors.Is(err, jobstore.ErrTerminal) {
			writeError(w, http.StatusInternalServerError, "%v", err)
			return
		}
		if j != nil {
			snap, err := s.jobs.cancelJob(id) // prompt local interrupt
			if err == nil {
				writeJSON(w, http.StatusOK, renderJobJSON(snap, false))
				return
			}
		}
		rec, err := s.store.Get(id)
		if err != nil {
			writeError(w, http.StatusNotFound, "no job %q", id)
			return
		}
		writeJSON(w, http.StatusOK, s.storeJobJSON(rec, false))
		return
	}
	snap, err := s.jobs.cancelJob(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, renderJobJSON(snap, false))
}

// storeJobJSON renders a store record for a job this replica is not
// running. Terminal records carry the full rendered job JSON written by
// the finishing replica; live records are reconstructed from the stored
// request.
func (s *Server) storeJobJSON(rec jobstore.Record, withCurve bool) JobJSON {
	if rec.State.Terminal() && len(rec.Result) > 0 {
		var out JobJSON
		if err := json.Unmarshal(rec.Result, &out); err == nil && out.ID == rec.ID {
			if !withCurve {
				out.Curve = nil
			}
			return out
		}
	}
	out := JobJSON{
		ID:      rec.ID,
		State:   localState(rec.State),
		Created: time.UnixMilli(rec.CreatedMS),
		Error:   rec.Error,
	}
	var req DesignRequest
	if err := json.Unmarshal(rec.Spec, &req); err == nil {
		out.Target = req.Target
		out.Strategy = search.Config{Strategy: req.Strategy}.Name()
		if spec, err := s.specFromRequest(req); err == nil {
			out.NonTargets = len(spec.NonTargetIDs)
		}
	}
	if rec.StartedMS > 0 {
		t := time.UnixMilli(rec.StartedMS)
		out.Started = &t
	}
	if rec.FinishedMS > 0 {
		t := time.UnixMilli(rec.FinishedMS)
		out.Finished = &t
	}
	return out
}

// renderJobJSON renders a snapshot; withCurve includes the full learning
// curve (job listings omit it to stay light).
func renderJobJSON(snap jobSnapshot, withCurve bool) JobJSON {
	out := JobJSON{
		ID:          snap.ID,
		State:       snap.State,
		Target:      snap.Spec.TargetName,
		Strategy:    snap.Spec.Search.Name(),
		NonTargets:  len(snap.Spec.NonTargetIDs),
		Created:     snap.Created,
		Generations: len(snap.Curve),
		Error:       snap.Err,
	}
	if !snap.Started.IsZero() {
		t := snap.Started
		out.Started = &t
	}
	if !snap.Finished.IsZero() {
		t := snap.Finished
		out.Finished = &t
	}
	if withCurve {
		out.Curve = make([]CurvePointJSON, len(snap.Curve))
		for i, cp := range snap.Curve {
			out.Curve[i] = CurvePointJSON{
				Generation:   cp.Generation,
				Fitness:      cp.Fitness,
				Target:       cp.Target,
				MaxNonTarget: cp.MaxNonTarget,
				AvgNonTarget: cp.AvgNonTarget,
			}
		}
	}
	if res := snap.Result; res != nil && res.Best.Len() > 0 {
		out.Best = &DetailJSON{
			Fitness:      res.BestDetail.Fitness,
			Target:       res.BestDetail.Target,
			MaxNonTarget: res.BestDetail.MaxNonTarget,
			AvgNonTarget: res.BestDetail.AvgNonTarget,
		}
		designed := res.Best.WithName("anti-" + snap.Spec.TargetName)
		out.Sequence = designed.Residues()
		out.FASTA = fastaString(designed)
	}
	return out
}

// fastaString renders one sequence as FASTA text.
func fastaString(sq seq.Sequence) string {
	var b strings.Builder
	_ = seq.WriteFASTA(&b, []seq.Sequence{sq}, 60)
	return b.String()
}
