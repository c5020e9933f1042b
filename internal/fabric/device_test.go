package fabric

import (
	"testing"
)

func TestLookupDevice(t *testing.T) {
	d, err := LookupDevice("XC5VLX110T")
	if err != nil {
		t.Fatal(err)
	}
	if d.Slices != 17280 || d.Family != "Virtex-5" {
		t.Errorf("LX110T = %+v", d.FPGACaps)
	}
	if d.BitstreamBytes != int64(17280)*bitstreamBytesPerSlice {
		t.Errorf("bitstream bytes = %d", d.BitstreamBytes)
	}
}

func TestLookupDeviceCaseInsensitive(t *testing.T) {
	if _, err := LookupDevice("xc6vlx365t"); err != nil {
		t.Errorf("lower-case lookup failed: %v", err)
	}
}

func TestLookupDeviceUnknown(t *testing.T) {
	if _, err := LookupDevice("XC9VLX999"); err == nil {
		t.Error("unknown device accepted")
	}
}

func TestDevicesSortedAndValid(t *testing.T) {
	devs := Devices()
	if len(devs) < 8 {
		t.Fatalf("catalog has only %d devices", len(devs))
	}
	for i, d := range devs {
		if err := d.Validate(); err != nil {
			t.Errorf("catalog device %s invalid: %v", d.FPGACaps.Device, err)
		}
		if i > 0 {
			prev := devs[i-1]
			if prev.Family > d.Family || (prev.Family == d.Family && prev.Slices > d.Slices) {
				t.Errorf("catalog not sorted at %d: %s before %s", i, prev.FPGACaps.Device, d.FPGACaps.Device)
			}
		}
	}
}

func TestCaseStudyDevicesPresent(t *testing.T) {
	// The case study depends on: Virtex-5 parts above 24,000 slices for
	// Task1/Task2 and the XC6VLX365T for Task3.
	for _, name := range []string{"XC5VLX155T", "XC5VLX220T", "XC5VLX330T", "XC6VLX365T"} {
		if _, err := LookupDevice(name); err != nil {
			t.Errorf("case-study device missing: %v", err)
		}
	}
	d, _ := LookupDevice("XC5VLX155T")
	if d.Slices < 24000 {
		t.Errorf("LX155T has %d slices; case study requires >24,000", d.Slices)
	}
}
