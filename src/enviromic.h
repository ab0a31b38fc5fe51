// EnviroMic — cooperative storage and retrieval for audio sensor networks.
//
// Public umbrella header. The library reproduces Luo et al., "EnviroMic:
// Towards Cooperative Storage and Retrieval in Audio Sensor Networks"
// (ICDCS 2007) on a deterministic discrete-event simulation substrate.
//
// Typical use:
//
//   enviromic::core::WorldConfig wc;
//   enviromic::core::World world(wc);
//   enviromic::core::grid_deployment(world, 8, 6, 2.0);
//   ... add sources ...
//   world.start();
//   world.run_until(enviromic::sim::Time::seconds_i(600));
//   auto files = world.drain_all();
#pragma once

#include "analysis/correlate.h"
#include "acoustic/detector.h"
#include "acoustic/field.h"
#include "acoustic/microphone.h"
#include "acoustic/mobility.h"
#include "acoustic/sampler.h"
#include "acoustic/source.h"
#include "acoustic/waveform.h"
#include "core/balancer.h"
#include "core/bulk_transfer.h"
#include "core/config.h"
#include "core/experiment.h"
#include "core/faults.h"
#include "core/ground_truth.h"
#include "core/group.h"
#include "core/metrics.h"
#include "core/mule.h"
#include "core/neighborhood.h"
#include "core/node.h"
#include "core/recorder.h"
#include "core/retrieval.h"
#include "core/tasking.h"
#include "core/telemetry_probes.h"
#include "core/timesync.h"
#include "core/workload.h"
#include "core/world.h"
#include "energy/battery.h"
#include "energy/energy_model.h"
#include "net/channel.h"
#include "net/message.h"
#include "net/radio.h"
#include "sim/event_queue.h"
#include "sim/geometry.h"
#include "sim/profiler.h"
#include "sim/rng.h"
#include "sim/scheduler.h"
#include "sim/telemetry.h"
#include "sim/time.h"
#include "sim/trace.h"
#include "storage/chunk.h"
#include "storage/chunk_store.h"
#include "storage/eeprom.h"
#include "storage/file_index.h"
#include "storage/flash.h"
#include "storage/codec.h"
#include "util/contour.h"
#include "util/intervals.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/wav.h"
