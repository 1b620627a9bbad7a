// A shared/exclusive mutex that prefers the exclusive side.
//
// Once a thread waits in lock(), new shared holders wait behind it, so a
// steady stream of overlapping shared holders cannot starve an exclusive
// one. glibc's std::shared_mutex (a default pthread rwlock) prefers
// readers: a shared lock is granted whenever the lock is in shared mode,
// whether or not a writer waits. The price is the mirror image: readers
// wait out every queued writer, so this suits rare, short exclusive
// sections (StreamIngestor's epoch seal against its batch applies).
//
// Meets the standard SharedMutex requirements, so std::unique_lock,
// std::shared_lock and std::lock_guard work with it.

#ifndef DCS_UTIL_WRITER_PREFERRING_MUTEX_H_
#define DCS_UTIL_WRITER_PREFERRING_MUTEX_H_

#include <condition_variable>
#include <mutex>

namespace dcs {

class WriterPreferringSharedMutex {
 public:
  void lock() {
    std::unique_lock<std::mutex> lock(mutex_);
    ++writers_;  // from here on, new shared holders wait
    writer_turn_.wait(lock, [this] { return !exclusive_ && shared_ == 0; });
    exclusive_ = true;
  }

  bool try_lock() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (writers_ > 0 || shared_ > 0) return false;
    ++writers_;
    exclusive_ = true;
    return true;
  }

  void unlock() {
    std::lock_guard<std::mutex> lock(mutex_);
    exclusive_ = false;
    if (--writers_ > 0) {
      writer_turn_.notify_one();
    } else {
      readers_turn_.notify_all();
    }
  }

  void lock_shared() {
    std::unique_lock<std::mutex> lock(mutex_);
    readers_turn_.wait(lock, [this] { return writers_ == 0; });
    ++shared_;
  }

  bool try_lock_shared() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (writers_ > 0) return false;
    ++shared_;
    return true;
  }

  void unlock_shared() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (--shared_ == 0 && writers_ > 0) writer_turn_.notify_one();
  }

 private:
  std::mutex mutex_;
  std::condition_variable writer_turn_;   // the lock may be free for a writer
  std::condition_variable readers_turn_;  // no writer holds or waits
  int writers_ = 0;         // threads in lock(): waiting or holding
  int shared_ = 0;          // shared holders
  bool exclusive_ = false;  // a writer holds the lock
};

}  // namespace dcs

#endif  // DCS_UTIL_WRITER_PREFERRING_MUTEX_H_
