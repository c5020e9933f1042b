// Package fabric models reconfigurable devices (FPGAs): a catalog of parts
// with Table I capability parameters, bitstreams, a contiguous region
// allocator for dynamic partial reconfiguration, and a configuration-port
// timing model (reconfiguration delay = bitstream size / reconfiguration
// bandwidth).
//
// The paper's framework treats an RPE as "a list of parameters plus a
// dynamically changing state" (Fig. 3); this package is the concrete device
// behind that state: which configurations are loaded, how much area remains,
// and how long the next reconfiguration takes.
package fabric

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/capability"
)

// Device is an immutable description of an FPGA part.
type Device struct {
	capability.FPGACaps
	// BitstreamBytes is the size of a full-device configuration bitstream.
	BitstreamBytes int64
}

// bitstreamBytesPerSlice approximates configuration-memory density: a
// Virtex-5 LX110T full bitstream is ≈3.9 MB over 17,280 slices ≈ 230 B/slice.
const bitstreamBytesPerSlice = 230

// defineDevice fills in derived fields for a catalog entry.
func defineDevice(c capability.FPGACaps) Device {
	return Device{
		FPGACaps:       c,
		BitstreamBytes: int64(c.Slices) * bitstreamBytesPerSlice,
	}
}

// catalog is the built-in device library. Slice/LUT/BRAM counts follow the
// public Xilinx data sheets for the Virtex-4/5/6 generations the paper's
// case study draws from (Virtex-5 for Task1/Task2, XC6VLX365T for Task3).
var catalog = func() map[string]Device {
	devices := []capability.FPGACaps{
		// Virtex-5 LX/LXT family.
		{Device: "XC5VLX30", Family: "Virtex-5", LogicCells: 30720, Slices: 4800, LUTs: 19200, BRAMKb: 1152, DSPSlices: 32, SpeedGradeMHz: 550, ReconfigMBps: 400, IOBs: 400, EthernetMAC: false, PartialRecon: true},
		{Device: "XC5VLX50T", Family: "Virtex-5", LogicCells: 46080, Slices: 7200, LUTs: 28800, BRAMKb: 2160, DSPSlices: 48, SpeedGradeMHz: 550, ReconfigMBps: 400, IOBs: 480, EthernetMAC: true, PartialRecon: true},
		{Device: "XC5VLX85", Family: "Virtex-5", LogicCells: 82944, Slices: 12960, LUTs: 51840, BRAMKb: 3456, DSPSlices: 48, SpeedGradeMHz: 550, ReconfigMBps: 400, IOBs: 560, EthernetMAC: false, PartialRecon: true},
		{Device: "XC5VLX110T", Family: "Virtex-5", LogicCells: 110592, Slices: 17280, LUTs: 69120, BRAMKb: 5328, DSPSlices: 64, SpeedGradeMHz: 550, ReconfigMBps: 400, IOBs: 680, EthernetMAC: true, PartialRecon: true},
		{Device: "XC5VLX155T", Family: "Virtex-5", LogicCells: 155648, Slices: 24320, LUTs: 97280, BRAMKb: 7632, DSPSlices: 128, SpeedGradeMHz: 550, ReconfigMBps: 400, IOBs: 680, EthernetMAC: true, PartialRecon: true},
		{Device: "XC5VLX220T", Family: "Virtex-5", LogicCells: 221184, Slices: 34560, LUTs: 138240, BRAMKb: 7632, DSPSlices: 128, SpeedGradeMHz: 550, ReconfigMBps: 400, IOBs: 680, EthernetMAC: true, PartialRecon: true},
		{Device: "XC5VLX330T", Family: "Virtex-5", LogicCells: 331776, Slices: 51840, LUTs: 207360, BRAMKb: 11664, DSPSlices: 192, SpeedGradeMHz: 550, ReconfigMBps: 400, IOBs: 960, EthernetMAC: true, PartialRecon: true},
		// Virtex-6 (the case study's device-specific Task3 target).
		{Device: "XC6VLX365T", Family: "Virtex-6", LogicCells: 364032, Slices: 56880, LUTs: 227520, BRAMKb: 14976, DSPSlices: 576, SpeedGradeMHz: 600, ReconfigMBps: 800, IOBs: 720, EthernetMAC: true, PartialRecon: true},
		{Device: "XC6VLX240T", Family: "Virtex-6", LogicCells: 241152, Slices: 37680, LUTs: 150720, BRAMKb: 14976, DSPSlices: 768, SpeedGradeMHz: 600, ReconfigMBps: 800, IOBs: 720, EthernetMAC: true, PartialRecon: true},
		// Virtex-4 (an older-generation RPE without partial reconfiguration
		// support in our model, exercising capability mismatches).
		{Device: "XC4VLX60", Family: "Virtex-4", LogicCells: 59904, Slices: 26624, LUTs: 53248, BRAMKb: 2880, DSPSlices: 64, SpeedGradeMHz: 500, ReconfigMBps: 100, IOBs: 448, EthernetMAC: false, PartialRecon: false},
	}
	m := make(map[string]Device, len(devices))
	for _, c := range devices {
		m[strings.ToUpper(c.Device)] = defineDevice(c)
	}
	return m
}()

// LookupDevice returns the catalog entry for a part number
// (case-insensitive).
func LookupDevice(name string) (Device, error) {
	d, ok := catalog[strings.ToUpper(name)]
	if !ok {
		return Device{}, fmt.Errorf("fabric: unknown device %q", name)
	}
	return d, nil
}

// Devices returns every catalog entry sorted by family then slice count.
func Devices() []Device {
	out := make([]Device, 0, len(catalog))
	for _, d := range catalog {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Family != out[j].Family {
			return out[i].Family < out[j].Family
		}
		return out[i].Slices < out[j].Slices
	})
	return out
}
