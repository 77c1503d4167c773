package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"svmsim/internal/walltime"
)

// WorkerInfo describes one worker to the coordinator.
type WorkerInfo struct {
	// URL is the worker's reachable base URL (what -advertise resolves to).
	URL string
	// Capacity is the worker's concurrent job capacity (its -workers).
	Capacity int
	// CacheID identifies the worker's persistent cell cache, which the
	// coordinator routes by (conventionally host + cache directory).
	CacheID string
}

// Membership is a worker's live registration with a coordinator: a
// background loop that registers, heartbeats, and re-registers whenever the
// coordinator forgets us (404 after a coordinator restart, 410 after a
// false-positive death). Create with Join, end with Leave.
type Membership struct {
	client      *Client
	coordinator string
	info        WorkerInfo
	logf        func(format string, args ...any)

	stop chan struct{}
	done chan struct{}
}

// Join starts maintaining a registration with the coordinator at base URL
// coordinator. It returns immediately; registration happens (and re-happens)
// in the background with the shared retrying client, so a worker can start
// before its coordinator and still join once it appears. The worker beats
// at the interval the coordinator advertises in its registration response,
// so it is never declared dead between beats. logf may be nil.
func Join(client *Client, coordinator string, info WorkerInfo, logf func(format string, args ...any)) *Membership {
	if client == nil {
		client = &Client{}
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	if info.Capacity < 1 {
		info.Capacity = 1
	}
	m := &Membership{
		client:      client,
		coordinator: coordinator,
		info:        info,
		logf:        logf,
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}
	go m.loop()
	return m
}

// Leave deregisters gracefully and stops the loop. Safe to call once.
func (m *Membership) Leave() {
	close(m.stop)
	<-m.done
}

// loop is the membership state machine: (re)register until it sticks, then
// heartbeat until told to re-register or stop. All waits go through
// walltime and are interruptible by Leave.
func (m *Membership) loop() {
	defer close(m.done)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-m.stop
		cancel()
	}()
	defer cancel()

	backoff := 500 * time.Millisecond
	for {
		id, interval, ok := m.register(ctx)
		if !ok {
			select {
			case <-m.stop:
				return
			default:
			}
			if !m.wait(backoff) {
				return
			}
			if backoff < 8*time.Second {
				backoff *= 2
			}
			continue
		}
		backoff = 500 * time.Millisecond
		m.logf("fleet: joined %s as %s (heartbeat every %v)", m.coordinator, id, interval)
		if !m.beat(ctx, id, interval) {
			// Leave was called: tell the coordinator before going dark so
			// our in-flight cells re-route immediately instead of waiting
			// out the suspect timeout.
			dctx, dcancel := context.WithTimeout(context.Background(), 2*time.Second)
			m.client.Do(dctx, http.MethodDelete, m.coordinator+"/v1/workers/"+id, nil)
			dcancel()
			return
		}
		m.logf("fleet: coordinator forgot %s; re-registering", id)
	}
}

// register attempts one registration round; returns the assigned ID and the
// heartbeat interval the coordinator advertised (1s when it sent none).
func (m *Membership) register(ctx context.Context) (string, time.Duration, bool) {
	body, err := json.Marshal(regRequest{URL: m.info.URL, Capacity: m.info.Capacity, CacheID: m.info.CacheID})
	if err != nil {
		m.logf("fleet: encoding registration: %v", err)
		return "", 0, false
	}
	status, data, err := m.client.Do(ctx, http.MethodPost, m.coordinator+"/v1/workers", body)
	if err != nil {
		m.logf("fleet: registering with %s: %v", m.coordinator, err)
		return "", 0, false
	}
	if status != http.StatusCreated {
		m.logf("fleet: registration refused: %d %s", status, firstLine(data))
		return "", 0, false
	}
	var resp regResponse
	if err := json.Unmarshal(data, &resp); err != nil || resp.ID == "" {
		m.logf("fleet: unparseable registration response %q", firstLine(data))
		return "", 0, false
	}
	interval := time.Duration(resp.HeartbeatIntervalMs) * time.Millisecond
	if interval <= 0 {
		interval = time.Second
	}
	return resp.ID, interval, true
}

// beat heartbeats until the coordinator disowns the ID (false positives,
// restarts — returns true: re-register) or Leave is called (returns false).
// Transport errors keep beating: the coordinator may be mid-restart, and
// its journal will bring it back.
func (m *Membership) beat(ctx context.Context, id string, interval time.Duration) bool {
	url := m.coordinator + "/v1/workers/" + id + "/heartbeat"
	for {
		if !m.wait(interval) {
			return false
		}
		status, _, err := m.client.Do(ctx, http.MethodPost, url, nil)
		if err != nil {
			select {
			case <-m.stop:
				return false
			default:
			}
			m.logf("fleet: heartbeat to %s: %v", m.coordinator, err)
			continue
		}
		switch status {
		case http.StatusNoContent, http.StatusOK:
		case http.StatusNotFound, http.StatusGone:
			return true
		default:
			m.logf("fleet: heartbeat answered %d", status)
		}
	}
}

// wait sleeps d, returning false if Leave interrupts.
func (m *Membership) wait(d time.Duration) bool {
	t := walltime.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C():
		return true
	case <-m.stop:
		return false
	}
}

// CacheIdentity builds the conventional cache identity string for a worker:
// hostname plus the absolute cache path, or empty when the worker has no
// persistent cache (the coordinator then routes by its URL).
func CacheIdentity(hostname, cacheDir string) string {
	if cacheDir == "" {
		return ""
	}
	return fmt.Sprintf("%s:%s", hostname, cacheDir)
}
