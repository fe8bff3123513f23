package fabric

import (
	"context"
	"math/rand"
	"time"
)

// The retry schedule for coordinator calls: from backoffBase, doubling,
// capped at backoffMax.
const (
	backoffBase = 100 * time.Millisecond
	backoffMax  = 5 * time.Second
)

// backoff returns the delay before retry number attempt (0-based: the
// delay after the first failure is backoff(0)). Up to half of it is
// randomized away, so a fleet of workers that lost the coordinator at
// the same instant does not reconnect in lockstep.
func backoff(attempt int) time.Duration {
	d := backoffBase
	for i := 0; i < attempt && d < backoffMax; i++ {
		d *= 2
	}
	if d > backoffMax {
		d = backoffMax
	}
	return d - time.Duration(0.5*rand.Float64()*float64(d))
}

// sleep waits for d or until ctx is cancelled, reporting whether the
// full wait elapsed.
func sleep(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
