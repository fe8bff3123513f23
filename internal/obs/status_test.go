package obs

import (
	"math"
	"testing"
	"time"
)

func TestCampaignStatusLifecycle(t *testing.T) {
	s := NewCampaignStatus(nil)
	clock := time.Unix(1700000000, 0)
	s.SetClock(func() time.Time { return clock })

	s.Begin("CLAMR", "LetGo-E", 100)
	s.SetPhase("inject")
	clock = clock.Add(10 * time.Second)
	for i := 0; i < 18; i++ {
		s.Record("Benign", false)
	}
	s.Record("C-Hang", true)
	s.RecordRestored("SDC", false)

	snap := s.Snapshot()
	if snap.App != "CLAMR" || snap.Mode != "LetGo-E" || snap.Phase != "inject" || snap.N != 100 {
		t.Errorf("identity fields wrong: %+v", snap)
	}
	if snap.Completed != 20 || snap.Resumed != 1 || snap.Quarantined != 1 {
		t.Errorf("completed=%d resumed=%d quarantined=%d, want 20/1/1",
			snap.Completed, snap.Resumed, snap.Quarantined)
	}
	if snap.Outcomes["Benign"] != 18 || snap.Outcomes["C-Hang"] != 1 || snap.Outcomes["SDC"] != 1 {
		t.Errorf("outcomes = %v", snap.Outcomes)
	}
	if snap.ElapsedSeconds != 10 {
		t.Errorf("elapsed = %v, want 10", snap.ElapsedSeconds)
	}
	// The rate counts this run's own work: 19 executed in 10 s; the
	// restored SDC is done but was not executed here.
	if snap.RatePerSecond != 1.9 {
		t.Errorf("rate = %v, want 1.9", snap.RatePerSecond)
	}
	if eta := 80 / 1.9; math.Abs(snap.ETASeconds-eta) > 1e-9 { // 80 remaining at 1.9/s
		t.Errorf("eta = %v, want %v", snap.ETASeconds, eta)
	}

	s.Done(false)
	snap = s.Snapshot()
	if snap.Phase != "done" || snap.CampaignsDone != 1 || snap.Interrupted {
		t.Errorf("after Done: %+v", snap)
	}
	if snap.ETASeconds != 0 {
		t.Errorf("finished campaign still has ETA %v", snap.ETASeconds)
	}

	s.Begin("SNAP", "LetGo-E", 10)
	s.Failed()
	if snap = s.Snapshot(); snap.Phase != "failed" || snap.Completed != 0 {
		t.Errorf("after Failed: %+v", snap)
	}
	s.Done(true)
	if snap = s.Snapshot(); snap.Phase != "interrupted" || !snap.Interrupted || snap.CampaignsDone != 2 {
		t.Errorf("after interrupted Done: %+v", snap)
	}
}

// TestCampaignStatusClockStopsAtEnd: a campaign's clock stops when it is
// done, interrupted or failed. Interrupted at 20 of 100 after 10 s, it
// reads elapsed 10 s, 2/s and no ETA a minute later, not 70 s, 0.29/s
// and 280 s.
func TestCampaignStatusClockStopsAtEnd(t *testing.T) {
	for _, end := range []string{"done", "interrupted", "failed"} {
		s := NewCampaignStatus(nil)
		clock := time.Unix(1700000000, 0)
		s.SetClock(func() time.Time { return clock })
		s.Begin("CLAMR", "LetGo-E", 100)
		s.SetPhase("inject")
		s.Execute(100)
		clock = clock.Add(10 * time.Second)
		for i := 0; i < 20; i++ {
			s.Record("Benign", false)
		}
		switch end {
		case "done":
			s.Done(false)
		case "interrupted":
			s.Done(true)
		case "failed":
			s.Failed()
		}
		clock = clock.Add(60 * time.Second)
		snap := s.Snapshot()
		if snap.Phase != end || snap.ElapsedSeconds != 10 || snap.RatePerSecond != 2 || snap.ETASeconds != 0 {
			t.Errorf("%s, 60 s on: phase %q elapsed %v rate %v eta %v, want 10 s, 2/s, eta 0",
				end, snap.Phase, snap.ElapsedSeconds, snap.RatePerSecond, snap.ETASeconds)
		}
	}
}

// TestCampaignStatusShardETA: a shard owns only its planned injections,
// so the ETA counts down from shard_planned, not from N.
func TestCampaignStatusShardETA(t *testing.T) {
	s := NewCampaignStatus(nil)
	clock := time.Unix(1700000000, 0)
	s.SetClock(func() time.Time { return clock })
	s.Begin("CLAMR", "LetGo-E", 60)
	s.SetShard(1, 3)
	s.SetPhase("inject")
	s.Execute(20)
	clock = clock.Add(10 * time.Second)
	for i := 0; i < 10; i++ {
		s.Record("Benign", false)
	}
	if snap := s.Snapshot(); snap.Shard != "1/3" || snap.ShardPlanned != 20 {
		t.Errorf("shard %q planned %d, want 1/3 planned 20", snap.Shard, snap.ShardPlanned)
	}
	if snap := s.Snapshot(); snap.RatePerSecond != 1 || snap.ETASeconds != 10 {
		t.Errorf("rate %v eta %v, want 1/s and 10 s (10 of 20 owned left)", snap.RatePerSecond, snap.ETASeconds)
	}
	for i := 0; i < 10; i++ {
		s.Record("Benign", false)
	}
	if snap := s.Snapshot(); snap.ETASeconds != 0 {
		t.Errorf("eta %v with the shard's 20 done, want 0", snap.ETASeconds)
	}
}

func TestCampaignStatusNilSafe(t *testing.T) {
	var s *CampaignStatus
	s.SetClock(time.Now)
	s.Begin("X", "off", 1)
	s.SetPhase("inject")
	s.Execute(1)
	s.Record("Benign", false)
	s.SetCompleted(2)
	s.RecordRestored("SDC", true)
	s.Done(false)
	s.Failed()
	snap := s.Snapshot()
	if snap.App != "" || snap.Completed != 0 || snap.Outcomes != nil {
		t.Errorf("nil snapshot = %+v", snap)
	}
}
