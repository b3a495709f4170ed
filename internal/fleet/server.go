package fleet

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"sonar/internal/fuzz"
)

// Server exposes a Controller over HTTP+JSON. Every endpoint, schema, and
// error code is documented in docs/SERVICE.md; error bodies are
// {"error": "..."} with a matching status code.
type Server struct {
	ct  *Controller
	mux *http.ServeMux
}

// NewServer mounts the API routes for a controller.
func NewServer(ct *Controller) *Server {
	s := &Server{ct: ct, mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.Handle("GET /metrics", ct.Metrics().Handler())
	s.mux.HandleFunc("POST /api/v1/campaigns", s.handleSubmit)
	s.mux.HandleFunc("GET /api/v1/campaigns", s.handleList)
	s.mux.HandleFunc("GET /api/v1/campaigns/{id}", s.handleCampaign)
	s.mux.HandleFunc("GET /api/v1/campaigns/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /api/v1/campaigns/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /api/v1/campaigns/{id}/checkpoint", s.handleCheckpoint)
	s.mux.HandleFunc("POST /api/v1/leases/acquire", s.handleAcquire)
	s.mux.HandleFunc("POST /api/v1/leases/{id}/renew", s.handleRenew)
	s.mux.HandleFunc("POST /api/v1/leases/{id}/result", s.handleReport)
	s.mux.HandleFunc("POST /api/v1/drain", s.handleDrain)
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// writeJSON writes a JSON response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v) // the connection is the only failure mode here
}

// writeErr maps a controller error to its status code.
func writeErr(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, errBadRequest):
		status = http.StatusBadRequest
	case errors.Is(err, errNotFound):
		status = http.StatusNotFound
	case errors.Is(err, errTooLarge):
		status = http.StatusRequestEntityTooLarge
	case errors.Is(err, errGone), errors.Is(err, errConflict):
		status = http.StatusConflict
	}
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// Request bodies are read through a constant cap. The largest legitimate
// body is a LeaseResult: one outcome per iteration of the batch, plus at
// most one retained seed each. The largest outcome of a 3000-iteration
// lite-core campaign measured 4.6 KB (at batches of 32 and 256), so
// maxEntryBytes leaves 7x headroom for head chains grown over longer
// campaigns, and Submit bounds the batch at maxBatchSize.
const (
	maxBatchSize    = 1024
	maxEntryBytes   = 32 << 10
	maxRequestBytes = 2 * maxBatchSize * maxEntryBytes // 64 MiB
)

// decodeJSON strictly decodes a request body of at most maxRequestBytes;
// a larger body is refused with 413 once the cap is reached, unread beyond
// it.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return fmt.Errorf("%w: body exceeds %d bytes", errTooLarge, tooLarge.Limit)
		}
		return fmt.Errorf("%w: body: %v", errBadRequest, err)
	}
	return nil
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.ct.Health())
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec Spec
	if err := decodeJSON(w, r, &spec); err != nil {
		writeErr(w, err)
		return
	}
	st, err := s.ct.Submit(&spec)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusCreated, st)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.ct.Campaigns())
}

func (s *Server) handleCampaign(w http.ResponseWriter, r *http.Request) {
	st, err := s.ct.Campaign(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	b, err := s.ct.Events(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	res, err := s.ct.Result(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	b, err := s.ct.Checkpoint(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
}

// acquireRequest is the lease-acquire request body.
type acquireRequest struct {
	// Worker is the worker's self-assigned identifier, recorded on the
	// lease for operator visibility.
	Worker string `json:"worker"`
	// Held lists the corpus prefixes the worker holds, sorted by campaign;
	// a grant for one of those campaigns carries only the seeds past it.
	Held []HeldPrefix `json:"held,omitempty"`
	// WaitMillis is how long the request may park waiting for work when
	// none is open (capped at MaxAcquireWait); zero answers at once.
	WaitMillis int64 `json:"wait_ms,omitempty"`
}

func (s *Server) handleAcquire(w http.ResponseWriter, r *http.Request) {
	var req acquireRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	// r.Context() ends when the client hangs up, which un-parks the acquire.
	wait := time.Duration(max(req.WaitMillis, 0)) * time.Millisecond
	g, err := s.ct.Acquire(r.Context(), req.Worker, req.Held, wait)
	if err != nil {
		writeErr(w, err)
		return
	}
	if g == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusOK, g)
}

// renewResponse is the lease-renew response body.
type renewResponse struct {
	// TTLMillis is the renewed lease's remaining time-to-live.
	TTLMillis int64 `json:"ttl_ms"`
}

func (s *Server) handleRenew(w http.ResponseWriter, r *http.Request) {
	ttl, err := s.ct.Renew(r.PathValue("id"))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, renewResponse{TTLMillis: ttl.Milliseconds()})
}

// reportResponse is the lease-result response body.
type reportResponse struct {
	// Status is "merged".
	Status string `json:"status"`
	// Next is the reporter's next lease of the same campaign, granted when
	// the report asked for it (?next=1) and one is open after the merge.
	Next *LeaseGrant `json:"next,omitempty"`
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	var res fuzz.LeaseResult
	if err := decodeJSON(w, r, &res); err != nil {
		writeErr(w, err)
		return
	}
	next, err := s.ct.Report(r.PathValue("id"), &res, r.URL.Query().Get("next") == "1")
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, reportResponse{Status: "merged", Next: next})
}

// drainRequest is the drain request body.
type drainRequest struct {
	// Drain switches lease granting off (true) or back on (false).
	Drain bool `json:"drain"`
}

func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	var req drainRequest
	if err := decodeJSON(w, r, &req); err != nil {
		writeErr(w, err)
		return
	}
	s.ct.Drain(req.Drain)
	writeJSON(w, http.StatusOK, map[string]bool{"draining": req.Drain})
}
