package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"sonar/internal/fuzz"
)

// Client is a thin HTTP client for the campaign service API, used by
// cmd/sonar-worker and the service tests.
type Client struct {
	// BaseURL is the server's base URL, e.g. "http://127.0.0.1:8714".
	BaseURL string
	// HTTPClient is the underlying client; nil means http.DefaultClient.
	HTTPClient *http.Client
}

// NewClient returns a client for a server base URL.
func NewClient(baseURL string) *Client {
	return &Client{BaseURL: strings.TrimRight(baseURL, "/")}
}

// httpClient returns the effective underlying HTTP client.
func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// do issues one API request. A non-nil out is filled from a JSON response
// body (left untouched by a 204); error bodies become "<status>: <message>"
// errors.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("fleet: marshal %s %s body: %w", method, path, err)
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		return apiError(resp)
	}
	if out == nil || resp.StatusCode == http.StatusNoContent {
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// raw issues one GET and returns the raw response body (events, checkpoint
// downloads).
func (c *Client) raw(path string) ([]byte, error) {
	resp, err := c.httpClient().Get(c.BaseURL + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 400 {
		return nil, apiError(resp)
	}
	return io.ReadAll(resp.Body)
}

// apiError converts an error response to a Go error carrying the status
// code and the server's message.
func apiError(resp *http.Response) error {
	var body struct {
		Error string `json:"error"`
	}
	msg := resp.Status
	if json.NewDecoder(resp.Body).Decode(&body) == nil && body.Error != "" {
		msg = body.Error
	}
	return &APIError{Status: resp.StatusCode, Message: msg}
}

// APIError is an error response from the campaign service.
type APIError struct {
	// Status is the HTTP status code.
	Status int
	// Message is the server's error message.
	Message string
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("fleet: server returned %d: %s", e.Status, e.Message)
}

// Health fetches the server's health summary.
func (c *Client) Health() (*Health, error) {
	var h Health
	if err := c.do(context.Background(), "GET", "/healthz", nil, &h); err != nil {
		return nil, err
	}
	return &h, nil
}

// Submit submits a campaign spec and returns the new campaign's status.
func (c *Client) Submit(spec *Spec) (*CampaignStatus, error) {
	var st CampaignStatus
	if err := c.do(context.Background(), "POST", "/api/v1/campaigns", spec, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Campaigns lists all campaigns.
func (c *Client) Campaigns() ([]CampaignStatus, error) {
	var out []CampaignStatus
	if err := c.do(context.Background(), "GET", "/api/v1/campaigns", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Campaign fetches one campaign's status.
func (c *Client) Campaign(id string) (*CampaignStatus, error) {
	var st CampaignStatus
	if err := c.do(context.Background(), "GET", "/api/v1/campaigns/"+id, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Events downloads a campaign's JSONL event stream so far.
func (c *Client) Events(id string) ([]byte, error) {
	return c.raw("/api/v1/campaigns/" + id + "/events")
}

// Result fetches a finished campaign's result.
func (c *Client) Result(id string) (*Result, error) {
	var res Result
	if err := c.do(context.Background(), "GET", "/api/v1/campaigns/"+id+"/result", nil, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// CheckpointFile downloads a fuzz campaign's encoded checkpoint file.
func (c *Client) CheckpointFile(id string) ([]byte, error) {
	return c.raw("/api/v1/campaigns/" + id + "/checkpoint")
}

// Acquire asks for a lease, listing the corpus prefixes the worker holds
// (nil for none). A nil grant with a nil error means the server has no work
// to offer right now.
func (c *Client) Acquire(worker string, held []HeldPrefix) (*LeaseGrant, error) {
	return c.AcquireWait(context.Background(), worker, held, 0)
}

// AcquireWait is Acquire with a long poll: the server parks the request for
// up to wait (capped at MaxAcquireWait) until a lease opens. Cancelling ctx
// abandons the request, and the server stops waiting too.
func (c *Client) AcquireWait(ctx context.Context, worker string, held []HeldPrefix, wait time.Duration) (*LeaseGrant, error) {
	var g *LeaseGrant
	req := acquireRequest{Worker: worker, Held: held, WaitMillis: wait.Milliseconds()}
	if err := c.do(ctx, "POST", "/api/v1/leases/acquire", req, &g); err != nil {
		return nil, err
	}
	return g, nil
}

// Renew extends an outstanding lease's TTL.
func (c *Client) Renew(leaseID string) error {
	return c.do(context.Background(), "POST", "/api/v1/leases/"+leaseID+"/renew", struct{}{}, nil)
}

// Report posts an executed lease's result.
func (c *Client) Report(leaseID string, res *fuzz.LeaseResult) error {
	return c.do(context.Background(), "POST", "/api/v1/leases/"+leaseID+"/result", res, nil)
}

// ReportNext posts an executed lease's result and asks for the reporter's
// next lease of the same campaign in the reply: a nil grant means none was
// open after the merge.
func (c *Client) ReportNext(leaseID string, res *fuzz.LeaseResult) (*LeaseGrant, error) {
	var out reportResponse
	if err := c.do(context.Background(), "POST", "/api/v1/leases/"+leaseID+"/result?next=1", res, &out); err != nil {
		return nil, err
	}
	return out.Next, nil
}

// Drain switches the server's lease granting off or back on.
func (c *Client) Drain(on bool) error {
	return c.do(context.Background(), "POST", "/api/v1/drain", drainRequest{Drain: on}, nil)
}
