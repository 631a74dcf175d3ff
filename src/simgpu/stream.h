// Streams and events.
//
// A Stream is an in-order queue of device operations identified, in virtual
// time, by the finish timestamp of its last operation (`tail`). Because the
// functional side of every operation executes eagerly when it is enqueued,
// a stream needs no real queue - only the timestamp and the device it is
// bound to. Events capture a stream's tail so other streams or the
// host can wait on it, exactly mirroring cudaEventRecord/cudaStreamWaitEvent.
#pragma once

#include <algorithm>

#include "vtime/vclock.h"

namespace gpuddt::sg {

class Device;

class Stream {
 public:
  /// `name` (optional, static string) labels the stream in access-checker
  /// diagnostics; it has no semantic effect.
  explicit Stream(Device* dev, const char* name = nullptr)
      : dev_(dev), name_(name) {}

  Stream(const Stream&) = delete;
  Stream& operator=(const Stream&) = delete;

  Device& device() const { return *dev_; }
  const char* name() const { return name_; }

  /// Finish time of the last enqueued operation.
  vt::Time tail() const {
    return tail_;
  }

  /// Serialize an operation after the current tail and any dependency:
  /// returns the operation's earliest possible start.
  vt::Time order_after(vt::Time dependency) {
    return std::max(tail_, dependency);
  }

  void set_tail(vt::Time t) {
    tail_ = std::max(tail_, t);
  }

  void reset() {
    tail_ = 0;
  }

 private:
  Device* dev_;
  const char* name_ = nullptr;
  vt::Time tail_ = 0;
};

/// A recorded point in a stream's virtual timeline.
struct Event {
  vt::Time timestamp = 0;
};

}  // namespace gpuddt::sg
