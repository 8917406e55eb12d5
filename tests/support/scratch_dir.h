#ifndef YUKTA_TESTS_SUPPORT_SCRATCH_DIR_H_
#define YUKTA_TESTS_SUPPORT_SCRATCH_DIR_H_

/**
 * @file
 * Per-process scratch directories for tests. Each directory gets a
 * fresh mkdtemp name, so two copies of one test binary running at
 * once never share a design cache or an output tree.
 */

#include <stdlib.h>

#include <filesystem>
#include <optional>
#include <stdexcept>
#include <string>
#include <system_error>
#include <utility>

#include <gtest/gtest.h>

namespace yukta::testsupport {

/** A new empty directory <tmp>/<stem>-XXXXXX, removed on destruction. */
class ScratchDir
{
  public:
    explicit ScratchDir(const std::string& stem)
    {
        std::string name =
            (std::filesystem::temp_directory_path() / (stem + "-XXXXXX"))
                .string();
        if (::mkdtemp(name.data()) == nullptr) {
            throw std::runtime_error("ScratchDir: cannot create " + name);
        }
        path_ = name;
    }

    ~ScratchDir()
    {
        std::error_code ec;
        std::filesystem::remove_all(path_, ec);
    }

    ScratchDir(const ScratchDir&) = delete;
    ScratchDir& operator=(const ScratchDir&) = delete;

    /** @return the directory. */
    const std::filesystem::path& path() const { return path_; }

  private:
    std::filesystem::path path_;
};

/**
 * Points the design cache (YUKTA_CACHE_DIR) at a ScratchDir for the
 * whole test binary and removes it in TearDown.
 */
class CacheDirEnvironment : public ::testing::Environment
{
  public:
    explicit CacheDirEnvironment(std::string stem) : stem_(std::move(stem))
    {
    }

    void SetUp() override
    {
        dir_.emplace(stem_);
        ASSERT_EQ(setenv("YUKTA_CACHE_DIR", dir().c_str(), 1), 0);
    }

    void TearDown() override { dir_.reset(); }

    /** @return the cache directory (valid between SetUp and TearDown). */
    const std::filesystem::path& dir() const { return dir_->path(); }

  private:
    std::string stem_;
    std::optional<ScratchDir> dir_;
};

/** Registers a CacheDirEnvironment named @p stem; @return it. */
inline CacheDirEnvironment*
addCacheDirEnvironment(const std::string& stem)
{
    auto* env = new CacheDirEnvironment(stem);
    ::testing::AddGlobalTestEnvironment(env);
    return env;
}

}  // namespace yukta::testsupport

#endif  // YUKTA_TESTS_SUPPORT_SCRATCH_DIR_H_
