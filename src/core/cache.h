#ifndef YUKTA_CORE_CACHE_H_
#define YUKTA_CORE_CACHE_H_

/**
 * @file
 * The design cache: plain-text (de)serialization of synthesized
 * controllers, so the benchmark binaries do not re-run mu- and LQG
 * synthesis on every invocation. Each entry is named by a hash of
 * everything its synthesis reads (ssvCacheKey, lqgCacheKey), so a
 * lookup can only hit for the inputs that produced the entry. The
 * cache directory defaults to "./yukta_cache" and can be overridden
 * with the YUKTA_CACHE_DIR environment variable.
 */

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "control/state_space.h"
#include "core/spec.h"
#include "robust/dk.h"
#include "robust/ssv_design.h"
#include "sysid/arx.h"

namespace yukta::core {

/** @return the active cache directory (created on demand). */
std::string cacheDir();

/**
 * Writes @p contents to @p path atomically: the bytes land in a
 * unique sibling temp file first and are renamed into place, so
 * concurrent readers (and readers after a crash) only ever see a
 * complete old or complete new file, never a torn write.
 */
bool atomicWriteFile(const std::string& path, const std::string& contents);

/** Writes a state-space system to @p path; returns success. */
bool saveStateSpace(const std::string& path,
                    const control::StateSpace& sys);

/** Reads a state-space system from @p path. */
std::optional<control::StateSpace> loadStateSpace(const std::string& path);

/** Writes an SSV controller (system + certificate scalars). */
bool saveSsvController(const std::string& path,
                       const robust::SsvController& ctrl);

/** Reads an SSV controller. */
std::optional<robust::SsvController>
loadSsvController(const std::string& path);

/**
 * @return the cache-file text form of @p ctrl (the exact bytes
 * saveSsvController writes). Doubles are printed at 17 significant
 * digits, so text -> controller -> text is a fixed point and the
 * parsed controller is bit-identical wherever the text travels --
 * the property the adaptation loop's checkpoints rely on.
 */
std::string ssvControllerToText(const robust::SsvController& ctrl);

/** Parses text produced by ssvControllerToText. */
std::optional<robust::SsvController>
ssvControllerFromText(const std::string& text);

/** @return cacheDir() + "/" + key + ".txt". */
std::string cachePath(const std::string& key);

/**
 * @return the entry name ("ssv-" + 16 hex digits) of the SSV controller
 * synthesized for @p spec against @p model: FNV-1a over every input the
 * synthesis reads -- the spec's numbers (not its signal names), the
 * model's orders, sample time, coefficients, means and intercept,
 * @p num_external, @p dk, and the format version. The model is
 * identified from records the plant produced, so a changed training
 * sample or plant constant changes the name.
 */
std::string ssvCacheKey(const LayerSpec& spec, const sysid::ArxModel& model,
                        std::size_t num_external,
                        const robust::DkOptions& dk);

/**
 * @return the entry name ("lqg-" + 16 hex digits) of the LQG controller
 * synthesized over @p inputs and @p output_bounds against @p model:
 * FNV-1a over the inputs' numbers, the bounds, the model and the
 * format version.
 */
std::string lqgCacheKey(const std::vector<SignalSpec>& inputs,
                        const std::vector<double>& output_bounds,
                        const sysid::ArxModel& model);

}  // namespace yukta::core

#endif  // YUKTA_CORE_CACHE_H_
