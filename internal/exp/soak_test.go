package exp

import "testing"

// TestSoakSmoke runs a scaled-down soak-and-chaos pass: enough jobs to
// saturate the concurrency bound, manipulated claimed outputs that must
// all be caught, and one transport chaos episode of each kind.
func TestSoakSmoke(t *testing.T) {
	opt := SoakOptions{
		P:           4,
		Concurrency: 16,
		Jobs:        80,
		Elements:    400,
		Flips:       1,
		Faults:      1,
		WaveJobs:    8,
		Seed:        7,
		Verbose:     t.Logf,
	}
	res, err := Soak(opt)
	if err != nil {
		t.Fatalf("Soak: %v", err)
	}
	t.Logf("\n%s", RenderSoak(res))
	if res.Corrupted == 0 {
		t.Fatal("smoke soak injected no corruption")
	}
	if !res.OK {
		t.Fatalf("soak failed: %+v", res)
	}
}
