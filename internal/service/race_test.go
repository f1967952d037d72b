//go:build race

package service

// raceEnabled reports a race-detector build. Its allocator pads small
// objects, so heap figures differ from those of a normal build.
const raceEnabled = true
