package fabric

import (
	"context"
	"testing"
	"time"
)

func TestBackoffDefaults(t *testing.T) {
	for attempt, want := range []time.Duration{
		100 * time.Millisecond,
		200 * time.Millisecond,
		400 * time.Millisecond,
	} {
		d := backoff(attempt)
		if d > want || d < want/2 {
			t.Errorf("backoff(%d) = %v, want in [%v, %v]", attempt, d, want/2, want)
		}
	}
	// Far past the doubling horizon the cap holds, jitter included.
	if d := backoff(40); d > 5*time.Second || d < 2500*time.Millisecond {
		t.Errorf("backoff(40) = %v, want in [2.5s, 5s]", d)
	}
}

func TestSleepHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if sleep(ctx, time.Hour) {
		t.Error("sleep reported a full wait on a cancelled context")
	}
	if !sleep(context.Background(), 0) {
		t.Error("zero-duration sleep on a live context reported cancellation")
	}
}
