package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
)

// Server is the HTTP front end over a Service:
//
//	POST /v1/batch        {"specs":[...], "seed_range":{...}} → NDJSON stream
//	GET  /v1/spec/{hash}  one cached result line (202 while running, 404 unknown)
//	GET  /healthz         liveness
//	GET  /metricsz        pool + cache instruments (MetricsDoc)
//
// Batch responses stream one result line per job, in request order,
// flushed as each job completes: clients see results incrementally, yet
// the body is a deterministic function of the request — replaying a
// batch yields byte-identical bytes, served from cache.
type Server struct {
	svc *Service
	// MaxBatch bounds one request's job count (default 100000).
	MaxBatch int
}

// NewServer wraps a service.
func NewServer(svc *Service) *Server {
	return &Server{svc: svc, MaxBatch: 100000}
}

// Handler returns the route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/batch", s.handleBatch)
	mux.HandleFunc("GET /v1/spec/{hash}", s.handleSpec)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metricsz", s.handleMetricsz)
	return mux
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		http.Error(w, fmt.Sprintf("serve: decoding batch: %v", err), http.StatusBadRequest)
		return
	}
	specs, err := req.Expand(s.MaxBatch)
	if err != nil {
		// Reject the whole batch on any invalid spec: a partial batch
		// would silently change the response's shape.
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	// Submit everything up front so the pool can run jobs concurrently
	// and identical specs coalesce, then stream results in request
	// order — the order is part of the deterministic response contract.
	// Experiment jobs are dispatched first: one is far longer than a
	// chaos seed, and Expand puts the seeds first, so dispatched last it
	// would run alone while the other workers idle.
	tickets := make([]*Ticket, len(specs))
	for i, spec := range specs {
		if spec.Kind == KindExperiment {
			tickets[i] = s.svc.Do(spec)
		}
	}
	for i, spec := range specs {
		if tickets[i] == nil {
			tickets[i] = s.svc.Do(spec)
		}
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	for _, t := range tickets {
		line, err := t.Wait(r.Context())
		if err != nil {
			// Client gone: stop writing. The jobs keep running and land
			// in the cache for the retry.
			return
		}
		if _, err := w.Write(line); err != nil {
			return
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
}

func (s *Server) handleSpec(w http.ResponseWriter, r *http.Request) {
	hash := r.PathValue("hash")
	line, ok, running := s.svc.Cached(hash)
	switch {
	case ok:
		w.Header().Set("Content-Type", "application/x-ndjson")
		w.Write(line)
	case running:
		http.Error(w, "running", http.StatusAccepted)
	default:
		http.Error(w, "unknown spec hash", http.StatusNotFound)
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"ok\":true,\"queue_depth\":%d}\n", s.svc.pool.Depth())
}

func (s *Server) handleMetricsz(w http.ResponseWriter, r *http.Request) {
	doc := s.svc.MetricsSnapshot()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(doc)
}
