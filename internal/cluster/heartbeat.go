package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// Heartbeats are pull-based: the gateway polls every registered worker's
// /api/health on a fixed interval instead of trusting workers to push. A
// worker that is wedged (accepting TCP but not answering) misses heartbeats
// exactly like one that is dead, which push-based liveness cannot see.

// heartbeatLoop probes the whole pool every HeartbeatInterval until Close.
func (g *Gateway) heartbeatLoop() {
	defer close(g.done)
	t := time.NewTicker(g.cfg.HeartbeatInterval)
	defer t.Stop()
	g.probeAll()
	for {
		select {
		case <-g.stop:
			return
		case <-t.C:
			g.probeAll()
		}
	}
}

// probeAll heartbeats every worker concurrently; one slow worker cannot
// delay the others' verdicts.
func (g *Gateway) probeAll() {
	var wg sync.WaitGroup
	for _, url := range g.reg.Workers() {
		wg.Add(1)
		go func(url string) {
			defer wg.Done()
			g.probeWorker(url)
		}(url)
	}
	wg.Wait()
	g.publishWorkerGauges()
}

// probeWorker runs one heartbeat: GET /api/health bounded by WorkerTimeout,
// result folded into the worker's breaker.
func (g *Gateway) probeWorker(url string) {
	hr, err := g.fetchHealth(url)
	g.reg.ReportHeartbeat(url, hr, err)
	if err != nil {
		g.mHeartbeats.With(url, "miss").Inc()
	} else {
		g.mHeartbeats.With(url, "ok").Inc()
	}
}

// fetchHealth fetches and decodes one worker's /api/health. Workers answer it
// with 200 even when degraded (status in the body), so any other answer
// means the thing listening is not a worker.
func (g *Gateway) fetchHealth(url string) (HealthReport, error) {
	var hr HealthReport
	body, err := g.fetch(context.Background(), url, "/api/health")
	if err != nil {
		return hr, err
	}
	if err := json.Unmarshal(body, &hr); err != nil {
		return hr, fmt.Errorf("health probe: bad payload: %w", err)
	}
	return hr, nil
}

// publishWorkerGauges refreshes the per-worker observability gauges from the
// registry snapshot after each heartbeat round.
func (g *Gateway) publishWorkerGauges() {
	for _, wh := range g.reg.Snapshot() {
		state := 0.0
		if wh.Breaker == "open" {
			state = 1
		}
		g.mBreakerState.With(wh.URL).Set(state)
		g.mWorkerDepth.With(wh.URL).Set(float64(wh.QueueDepth))
	}
}

// registerWorker announces a worker to a gateway once: POST
// /cluster/register with the worker's advertised base URL.
func registerWorker(ctx context.Context, client *http.Client, gatewayURL, advertiseURL string) error {
	return announce(ctx, client, gatewayURL, "/cluster/register", advertiseURL)
}

// DeregisterWorker withdraws a worker from a gateway's pool: POST
// /cluster/deregister. Draining workers call this before refusing new jobs,
// so the gateway fails their routable work over instead of discovering the
// drain through missed forwards.
func DeregisterWorker(ctx context.Context, client *http.Client, gatewayURL, advertiseURL string) error {
	return announce(ctx, client, gatewayURL, "/cluster/deregister", advertiseURL)
}

func announce(ctx context.Context, client *http.Client, gatewayURL, path, advertiseURL string) error {
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Second}
	}
	payload, _ := json.Marshal(map[string]string{"url": advertiseURL})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		gatewayURL+path, bytes.NewReader(payload))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("announce %s at %s: HTTP %d", path, gatewayURL, resp.StatusCode)
	}
	return nil
}

// RegisterLoop keeps a worker announced to its gateway: register
// immediately, then re-register on every interval tick until ctx ends. The
// gateway is stateless — a restarted gateway relearns its pool from these
// re-announcements within one interval. Registration is idempotent, so the
// steady-state re-registers are cheap no-ops.
func RegisterLoop(ctx context.Context, gatewayURL, advertiseURL string, interval time.Duration, logf func(format string, args ...any)) {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	client := &http.Client{Timeout: interval}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if err := registerWorker(ctx, client, gatewayURL, advertiseURL); err != nil {
		logf("cluster register failed (will retry): %v", err)
	} else {
		logf("registered with gateway %s as %s", gatewayURL, advertiseURL)
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			if err := registerWorker(ctx, client, gatewayURL, advertiseURL); err != nil {
				logf("cluster re-register failed: %v", err)
			}
		}
	}
}
