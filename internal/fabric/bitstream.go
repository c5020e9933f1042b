package fabric

import (
	"fmt"

	"repro/internal/sim"
)

// Bitstream is a device configuration image. Full bitstreams configure a
// whole device; partial bitstreams configure one reconfigurable region.
// Bitstreams are produced either by the provider's synthesis service
// (user-defined hardware scenario) or shipped directly by the user
// (device-specific scenario).
type Bitstream struct {
	// ID identifies the configuration; nodes use it to detect that a
	// requested configuration is already loaded and skip reconfiguration.
	ID string
	// Design names the hardware function implemented (e.g. "pairalign-core").
	Design string
	// Device is the exact part the bitstream was generated for. Bitstreams
	// are never portable across parts.
	Device string
	// Partial marks a region-level (partial reconfiguration) bitstream.
	Partial bool
	// Slices is the area the configuration occupies.
	Slices int
	// BRAMKb and DSPSlices are the block-RAM and DSP budget the
	// configuration consumes.
	BRAMKb    int
	DSPSlices int
	// SizeBytes is the configuration image size, which determines
	// reconfiguration delay.
	SizeBytes int64
	// ClockMHz is the design's achieved clock after placement and routing.
	ClockMHz float64
}

// Validate reports structural problems with the bitstream.
func (b *Bitstream) Validate() error {
	switch {
	case b == nil:
		return fmt.Errorf("fabric: nil bitstream")
	case b.ID == "":
		return fmt.Errorf("fabric: bitstream has no ID")
	case b.Device == "":
		return fmt.Errorf("fabric: bitstream %s has no target device", b.ID)
	case b.Slices <= 0:
		return fmt.Errorf("fabric: bitstream %s has non-positive slices", b.ID)
	case b.SizeBytes <= 0:
		return fmt.Errorf("fabric: bitstream %s has non-positive size", b.ID)
	}
	return nil
}

// String summarizes the bitstream.
func (b *Bitstream) String() string {
	kind := "full"
	if b.Partial {
		kind = "partial"
	}
	return fmt.Sprintf("bitstream %s (%s, %s for %s, %d slices, %d B)",
		b.ID, b.Design, kind, b.Device, b.Slices, b.SizeBytes)
}

// FullBitstream builds a full-device bitstream for a catalog device. The
// image always spans the whole configuration memory regardless of how much
// logic the design uses — that is exactly why full reconfiguration is slow.
func FullBitstream(id, design string, dev Device, usedSlices int) *Bitstream {
	return &Bitstream{
		ID:        id,
		Design:    design,
		Device:    dev.FPGACaps.Device,
		Partial:   false,
		Slices:    usedSlices,
		SizeBytes: dev.BitstreamBytes,
		ClockMHz:  float64(dev.SpeedGradeMHz) * 0.5, // typical achieved clock
	}
}

// PartialBitstream builds a region bitstream whose image size scales with
// the region area, the property that makes partial reconfiguration fast.
func PartialBitstream(id, design string, dev Device, regionSlices int) *Bitstream {
	return &Bitstream{
		ID:        id,
		Design:    design,
		Device:    dev.FPGACaps.Device,
		Partial:   true,
		Slices:    regionSlices,
		SizeBytes: int64(regionSlices) * bitstreamBytesPerSlice,
		ClockMHz:  float64(dev.SpeedGradeMHz) * 0.5,
	}
}

// ConfigDelay returns the time to push a bitstream through a configuration
// port with the given bandwidth (MB/s).
func ConfigDelay(sizeBytes int64, reconfigMBps float64) sim.Time {
	if reconfigMBps <= 0 {
		return sim.TimeInf
	}
	return sim.Time(float64(sizeBytes) / (reconfigMBps * 1e6))
}
