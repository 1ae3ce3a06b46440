package main

// The serving rig: one in-process serve.Server behind a loopback httptest
// listener and one closed-loop client holding a single keep-alive
// connection. Each request is sent only after the previous response has
// been read to its last byte.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"netdecomp/internal/serve"
)

type rig struct {
	srv    *serve.Server
	hs     *httptest.Server
	client *http.Client
	buf    bytes.Buffer // response bodies, reused across requests
}

// boot starts a server whose result cache holds cacheSize partitions.
func boot(cacheSize int) *rig {
	srv := serve.New(serve.Options{CacheSize: cacheSize})
	return &rig{
		srv: srv,
		hs:  httptest.NewServer(srv.Handler()),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		}},
	}
}

func (r *rig) close() {
	r.client.CloseIdleConnections()
	r.hs.Close()
	r.srv.Close()
}

// post sends one request and returns the response body and the process
// CPU time (see cpuNow) from sending the request to reading the last byte
// of the response. The body is valid until the next request. A status
// other than 200 is an error.
func (r *rig) post(path string, body []byte) ([]byte, time.Duration, error) {
	req, err := http.NewRequest(http.MethodPost, r.hs.URL+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := cpuNow()
	resp, err := r.client.Do(req)
	if err != nil {
		return nil, 0, fmt.Errorf("POST %s: %w", path, err)
	}
	r.buf.Reset()
	_, err = r.buf.ReadFrom(resp.Body)
	d := cpuNow() - start
	resp.Body.Close()
	data := r.buf.Bytes()
	if err != nil {
		return nil, d, fmt.Errorf("POST %s: reading response: %w", path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return data, d, fmt.Errorf("POST %s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, d, nil
}

// postJSON sends in as JSON and decodes the response into out.
func (r *rig) postJSON(path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	data, _, err := r.post(path, body)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, out)
}

// graphInfo and planInfo are the parts of the registration responses the
// benchmark reads.
type graphInfo struct {
	Fingerprint string `json:"fingerprint"`
}

type planInfo struct {
	Plan string `json:"plan"`
}

// register registers the generator graph and the plan, returning their
// keys.
func (r *rig) register(w *workload) (graphInfo, string, error) {
	var gi graphInfo
	if err := r.postJSON("/v1/graphs", map[string]any{"family": w.family, "n": w.n, "seed": graphSeed}, &gi); err != nil {
		return gi, "", err
	}
	var pi planInfo
	spec := map[string]any{"algorithm": w.algorithm, "forceComplete": true, "seed": planSeed}
	if err := r.postJSON("/v1/plans", spec, &pi); err != nil {
		return gi, "", err
	}
	return gi, pi.Plan, nil
}

// decomposeBody is the request body for one decomposition.
func decomposeBody(graphKey, planKey string, seed uint64) []byte {
	return fmt.Appendf(nil, `{"graph":%q,"plan":%q,"seed":%d}`, graphKey, planKey, seed)
}

// decomposeReply is the part of a decompose response the checks read; the
// partition stays raw so warm hits can be compared byte for byte.
type decomposeReply struct {
	Graph     string          `json:"graph"`
	Seed      uint64          `json:"seed"`
	CacheHit  bool            `json:"cacheHit"`
	Partition json.RawMessage `json:"partition"`
}

// mutateReply is the part of a mutate response the checks read.
type mutateReply struct {
	Previous    string `json:"previous"`
	Fingerprint string `json:"fingerprint"`
	N           int    `json:"n"`
	M           int    `json:"m"`
}
