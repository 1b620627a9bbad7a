// WriterPreferringSharedMutex: a waiting writer holds off new readers
// (the property std::shared_mutex lacks on glibc), readers still share,
// and mixed shared/exclusive use keeps mutual exclusion.

#include "util/writer_preferring_mutex.h"

#include <atomic>
#include <chrono>
#include <shared_mutex>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace dcs {
namespace {

// Spins until `done` holds or `limit` passes; returns done().
template <typename Done>
bool WaitFor(Done done, std::chrono::seconds limit) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  while (!done()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(WriterPreferringSharedMutexTest, ReadersShare) {
  WriterPreferringSharedMutex mutex;
  mutex.lock_shared();
  EXPECT_TRUE(mutex.try_lock_shared());
  EXPECT_FALSE(mutex.try_lock());
  mutex.unlock_shared();
  mutex.unlock_shared();
  EXPECT_TRUE(mutex.try_lock());
  EXPECT_FALSE(mutex.try_lock_shared());
  mutex.unlock();
  EXPECT_TRUE(mutex.try_lock_shared());
  mutex.unlock_shared();
}

TEST(WriterPreferringSharedMutexTest, WaitingWriterHoldsOffNewReaders) {
  WriterPreferringSharedMutex mutex;
  mutex.lock_shared();
  std::atomic<bool> writer_in{false};
  std::thread writer([&mutex, &writer_in] {
    mutex.lock();
    writer_in.store(true);
    mutex.unlock();
  });
  // Once the writer waits, a new shared lock is refused even though the
  // lock is still in shared mode. A reader-preferring mutex grants it
  // forever, so this wait would run into its limit.
  const bool writer_queued = WaitFor(
      [&mutex] {
        if (!mutex.try_lock_shared()) return true;
        mutex.unlock_shared();
        return false;
      },
      std::chrono::seconds(20));
  EXPECT_TRUE(writer_queued);
  EXPECT_FALSE(writer_in.load());
  // A reader that arrives now blocks until the writer is done.
  std::atomic<bool> reader_in{false};
  std::atomic<bool> writer_was_first{false};
  std::thread reader([&] {
    mutex.lock_shared();
    writer_was_first.store(writer_in.load());
    reader_in.store(true);
    mutex.unlock_shared();
  });
  mutex.unlock_shared();  // the last early reader leaves: the writer runs
  writer.join();
  reader.join();
  EXPECT_TRUE(writer_in.load());
  EXPECT_TRUE(reader_in.load());
  EXPECT_TRUE(writer_was_first.load());
  EXPECT_TRUE(mutex.try_lock());
  mutex.unlock();
}

TEST(WriterPreferringSharedMutexTest, WritersGetInUnderConstantReaders) {
  // Four readers re-take the lock back to back, always overlapping; a
  // writer must still get in every time it asks.
  WriterPreferringSharedMutex mutex;
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&mutex, &stop] {
      while (!stop.load()) {
        std::shared_lock<WriterPreferringSharedMutex> lock(mutex);
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    });
  }
  std::atomic<int> writes{0};
  std::thread writer([&mutex, &writes] {
    for (int i = 0; i < 50; ++i) {
      std::lock_guard<WriterPreferringSharedMutex> lock(mutex);
      writes.fetch_add(1);
    }
  });
  EXPECT_TRUE(WaitFor([&writes] { return writes.load() == 50; },
                      std::chrono::seconds(60)));
  stop.store(true);
  writer.join();
  for (std::thread& reader : readers) reader.join();
}

TEST(WriterPreferringSharedMutexTest, MixedUseKeepsMutualExclusion) {
  WriterPreferringSharedMutex mutex;
  int value = 0;  // written under the exclusive lock only
  std::atomic<int> readers_in{0};
  std::atomic<int> violations{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 2000; ++i) {
        if ((i + t) % 8 == 0) {
          std::lock_guard<WriterPreferringSharedMutex> lock(mutex);
          if (readers_in.load() != 0) violations.fetch_add(1);
          ++value;
        } else {
          std::shared_lock<WriterPreferringSharedMutex> lock(mutex);
          readers_in.fetch_add(1);
          const int seen = value;
          if (seen != value) violations.fetch_add(1);
          readers_in.fetch_sub(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(value, 4 * 2000 / 8);
}

}  // namespace
}  // namespace dcs
