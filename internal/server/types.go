package server

import "svwsim/internal/api"

// The request and response shapes of the svwd HTTP API live in
// internal/api, shared with svwctl so the two layers
// serve literally the same wire types and cannot drift. The aliases keep
// the server package's historical names usable.
//
// Study endpoints return the study reports' JSON (sim.Report.WriteJSON,
// as `svwexp -json` prints it); /v1/run and /v1/sweep return engine
// results encoded exactly as `svwsim -json` prints them, so a service
// response can be byte-compared against the CLIs (the CI smoke stage does
// exactly that).
type (
	RunRequest      = api.RunRequest
	SweepRequest    = api.SweepRequest
	ErrorResponse   = api.ErrorResponse
	ConfigsResponse = api.ConfigsResponse
	BenchesResponse = api.BenchesResponse
	HealthResponse  = api.HealthResponse
	StatsResponse   = api.StatsResponse
	CacheStats      = api.CacheStats
	EngineStats     = api.EngineStats
	GateStats       = api.GateStats
	SweepEvent      = api.SweepEvent
	SweepDone       = api.SweepDone
)
