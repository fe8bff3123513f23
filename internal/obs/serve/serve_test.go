package serve

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/letgo-hpc/letgo/internal/obs"
)

// startTestServer brings up a plane on a free port with live sinks.
func startTestServer(t *testing.T) (*Server, *obs.Registry, *obs.Fanout, *obs.CampaignStatus) {
	t.Helper()
	reg := obs.NewRegistry()
	fan := obs.NewFanout()
	status := obs.NewCampaignStatus(nil)
	srv, err := Start("127.0.0.1:0", Config{Registry: reg, Fanout: fan, Status: status})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, reg, fan, status
}

func get(t *testing.T, url string) (int, string, http.Header) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s body: %v", url, err)
	}
	return resp.StatusCode, string(body), resp.Header
}

func TestServeEndpoints(t *testing.T) {
	srv, reg, _, status := startTestServer(t)
	base := "http://" + srv.Addr()

	code, body, _ := get(t, base+"/healthz")
	if code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Errorf("/healthz = %d %q", code, body)
	}

	// /metrics renders live registry state, not a snapshot at start time.
	reg.Counter("letgo_test_total", "k", "v").Inc()
	reg.Histogram("letgo_test_seconds", obs.ExpBuckets(0.001, 10, 4)).Observe(0.5)
	code, body, hdr := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics = %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("metrics content type %q", ct)
	}
	for _, want := range []string{
		`letgo_test_total{k="v"} 1`,
		`letgo_test_seconds_count 1`,
		`letgo_test_seconds{quantile="0.5"} 0.5`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}

	status.Begin("CLAMR", "LetGo-E", 50)
	status.SetPhase("inject")
	status.Record("Benign", false)
	code, body, hdr = get(t, base+"/status")
	if code != http.StatusOK || hdr.Get("Content-Type") != "application/json" {
		t.Fatalf("/status = %d %q", code, hdr.Get("Content-Type"))
	}
	for _, want := range []string{`"app": "CLAMR"`, `"phase": "inject"`, `"n": 50`, `"completed": 1`} {
		if !strings.Contains(body, want) {
			t.Errorf("/status missing %q:\n%s", want, body)
		}
	}

	code, body, _ = get(t, base+"/debug/pprof/cmdline")
	if code != http.StatusOK || body == "" {
		t.Errorf("/debug/pprof/cmdline = %d %q", code, body)
	}
}

func TestServeEventsStream(t *testing.T) {
	srv, _, fan, _ := startTestServer(t)
	resp, err := http.Get("http://" + srv.Addr() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	r := bufio.NewReader(resp.Body)
	// Preamble announces the replay contract before any event.
	pre, err := r.ReadString('\n')
	if err != nil || !strings.Contains(pre, "Last-Event-ID replay unsupported") {
		t.Fatalf("preamble %q: %v", pre, err)
	}

	// Wait for the handler's subscription before emitting.
	waitForSubscribers(t, fan, 1)
	hub := &obs.Hub{Em: obs.NewEmitter(fan)}
	hub.Emit(obs.PhaseEvent{App: "CLAMR", Phase: "inject"})

	var id, data string
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) && data == "" {
		line, err := r.ReadString('\n')
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		switch {
		case strings.HasPrefix(line, "id: "):
			id = strings.TrimSpace(strings.TrimPrefix(line, "id: "))
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimSpace(strings.TrimPrefix(line, "data: "))
		}
	}
	if id != "1" {
		t.Errorf("first event id = %q, want 1", id)
	}
	for _, want := range []string{`"type":"phase"`, `"phase":"inject"`} {
		if !strings.Contains(data, want) {
			t.Errorf("event data missing %q: %s", want, data)
		}
	}
}

// TestServeEventsSlowConsumerEvicted pins the eviction contract end to
// end: a client that stops reading is dropped server-side and told why.
func TestServeEventsSlowConsumerEvicted(t *testing.T) {
	reg := obs.NewRegistry()
	fan := obs.NewFanout()
	srv, err := Start("127.0.0.1:0", Config{Registry: reg, Fanout: fan, SubscriberBuffer: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	waitForSubscribers(t, fan, 1)

	// Flood far past the subscriber buffer without the client reading.
	// The handler may drain a few messages into the kernel socket buffer,
	// but it cannot keep up with an unread stream this large.
	for i := 0; i < 10000; i++ {
		fan.Write([]byte(fmt.Sprintf(`{"seq":%d}`+"\n", i)))
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if subs, _, dropped := fan.Stats(); subs == 0 && dropped > 0 {
			break
		}
		if time.Now().After(deadline) {
			subs, _, dropped := fan.Stats()
			t.Fatalf("slow consumer not evicted: subs=%d dropped=%d", subs, dropped)
		}
		time.Sleep(time.Millisecond)
	}
	// The tail of the stream carries the eviction notice.
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), "event: evicted") {
		t.Error("stream ended without the evicted notice")
	}
}

// TestServeConcurrentSubscribers runs several SSE readers against a
// live emitter under -race, then unsubscribes them mid-stream.
func TestServeConcurrentSubscribers(t *testing.T) {
	srv, _, fan, _ := startTestServer(t)
	base := "http://" + srv.Addr()

	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		hub := &obs.Hub{Em: obs.NewEmitter(fan)}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				hub.Emit(obs.InjectionPlannedEvent{App: "X", Index: i})
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()

	var readers sync.WaitGroup
	for c := 0; c < 4; c++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			resp, err := http.Get(base + "/events")
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			r := bufio.NewReader(resp.Body)
			seen := 0
			for seen < 10 {
				line, err := r.ReadString('\n')
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				if strings.HasPrefix(line, "data: ") {
					seen++
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writer.Wait()
	// Readers hang up after 10 events; the fan-out must notice and drop
	// their subscriptions rather than leak them.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if subs, _, _ := fan.Stats(); subs == 0 {
			break
		}
		if time.Now().After(deadline) {
			subs, _, _ := fan.Stats()
			t.Fatalf("%d subscriptions leaked after clients left", subs)
		}
		fan.Write([]byte("{}\n")) // a write flushes out closed connections
		time.Sleep(time.Millisecond)
	}
}

func TestServeCloseTerminatesStreams(t *testing.T) {
	srv, _, fan, _ := startTestServer(t)
	resp, err := http.Get("http://" + srv.Addr() + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	waitForSubscribers(t, fan, 1)

	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Errorf("Close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close blocked on the live SSE stream")
	}
	// The client's stream ends rather than hanging.
	done := make(chan struct{})
	go func() {
		io.ReadAll(resp.Body) //nolint:errcheck // any termination is fine
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("client stream still open after Close")
	}
}

func TestServeDegradesWithoutSinks(t *testing.T) {
	srv, err := Start("127.0.0.1:0", Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	code, body, _ := get(t, base+"/metrics")
	if code != http.StatusOK || strings.TrimSpace(body) != "" {
		t.Errorf("/metrics without registry = %d %q", code, body)
	}
	code, body, _ = get(t, base+"/status")
	if code != http.StatusOK || !strings.Contains(body, `"n": 0`) {
		t.Errorf("/status without tracker = %d %q", code, body)
	}
	code, _, _ = get(t, base+"/events")
	if code != http.StatusNotFound {
		t.Errorf("/events without fanout = %d, want 404", code)
	}

	var nilSrv *Server
	if nilSrv.Addr() != "" || nilSrv.Close() != nil {
		t.Error("nil server misbehaves")
	}
}

func waitForSubscribers(t *testing.T, fan *obs.Fanout, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if subs, _, _ := fan.Stats(); subs >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("SSE handler never subscribed")
		}
		time.Sleep(time.Millisecond)
	}
}
