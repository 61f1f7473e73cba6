// Package shardfit is empty. It held the orchestrator that fitted
// independent shard chains and merged their statistics. A multi-worker
// fit is now one chain on core's exact parallel kernel
// (pipeline.Options.ShardCount sets its worker count), so nothing is
// left here. The package stays only because the benchmark module
// still imports it for its side effects; it goes when that import
// does.
package shardfit
