package obs

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// TestLingerInterruptible proves a cancelled context cuts the lingering
// window short: a one-hour linger under an already-cancelled context must
// return immediately, and an uncancelled one must wait out its duration.
func TestLingerInterruptible(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	Linger(ctx, time.Hour)
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("cancelled linger took %v", d)
	}

	start = time.Now()
	Linger(context.Background(), 10*time.Millisecond)
	if d := time.Since(start); d < 10*time.Millisecond {
		t.Fatalf("linger returned after %v, want >= 10ms", d)
	}

	// Non-positive durations return immediately without arming a timer.
	Linger(context.Background(), 0)
	Linger(context.Background(), -time.Second)
}

// TestDrainCompletesInflight proves Drain lets an in-flight request finish
// within the deadline instead of cutting its connection.
func TestDrainCompletesInflight(t *testing.T) {
	release := make(chan struct{})
	inHandler := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/slow", func(w http.ResponseWriter, r *http.Request) {
		close(inHandler)
		<-release
		io.WriteString(w, "done")
	})
	ts := httptest.NewUnstartedServer(mux)
	ts.Start()
	defer ts.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	var body string
	var reqErr error
	go func() {
		defer wg.Done()
		resp, err := http.Get(ts.URL + "/slow")
		if err != nil {
			reqErr = err
			return
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		body = string(b)
	}()

	<-inHandler
	drained := make(chan error, 1)
	go func() { drained <- Drain(ts.Config, 10*time.Second, nil) }()
	// Shutdown is now waiting on the in-flight request; releasing the
	// handler must let both the response and the drain complete.
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	wg.Wait()
	if reqErr != nil {
		t.Fatalf("in-flight request failed during drain: %v", reqErr)
	}
	if body != "done" {
		t.Fatalf("in-flight request body = %q, want %q", body, "done")
	}
}

// TestDrainForcesCloseOnDeadline proves an over-deadline handler does not
// wedge shutdown: Drain returns the deadline error and force-closes.
func TestDrainForcesCloseOnDeadline(t *testing.T) {
	stuck := make(chan struct{})
	inHandler := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/stuck", func(w http.ResponseWriter, r *http.Request) {
		close(inHandler)
		<-stuck
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()
	defer close(stuck)

	go http.Get(ts.URL + "/stuck") //nolint:errcheck — the forced close fails it by design
	<-inHandler
	if err := Drain(ts.Config, 10*time.Millisecond, nil); err == nil {
		t.Fatal("drain of a stuck handler returned nil, want deadline error")
	}
}
