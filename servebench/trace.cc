#include "trace.h"

#include <cstdio>

namespace lbsq::servebench {

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kClient:
      return "client";
    case SpanName::kServiceNn1:
      return "service.nn1";
    case SpanName::kServiceNn10:
      return "service.nn10";
    case SpanName::kServiceWindow:
      return "service.window";
    case SpanName::kServiceRange:
      return "service.range";
    case SpanName::kPushQuery:
      return "push.query";
    case SpanName::kPartitionUpdate:
      return "partition.update";
    case SpanName::kProbeEngineNn1:
      return "probe.engine.nn1";
    case SpanName::kProbeEngineNn10:
      return "probe.engine.nn10";
    case SpanName::kProbeEngineWindow:
      return "probe.engine.window";
    case SpanName::kProbeEngineRange:
      return "probe.engine.range";
    case SpanName::kProbeEncodeNn1:
      return "probe.encode.nn1";
    case SpanName::kProbeEncodeNn10:
      return "probe.encode.nn10";
    case SpanName::kProbeEncodeWindow:
      return "probe.encode.window";
    case SpanName::kProbeEncodeRange:
      return "probe.encode.range";
  }
  return "unknown";
}

bool WriteChromeTrace(
    const std::string& path, Clock::time_point origin,
    const std::vector<std::pair<int, const SpanStore*>>& stores,
    const std::string& other_data) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  auto micros = [origin](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - origin).count();
  };
  std::fputs("{\"displayTimeUnit\":\"ns\",\"otherData\":", f);
  std::fputs(other_data.c_str(), f);
  std::fputs(",\"traceEvents\":[\n", f);
  bool first = true;
  for (const auto& [tid, store] : stores) {
    for (const Span& s : store->spans()) {
      std::fprintf(f,
                   "%s{\"name\":\"%s\",\"cat\":\"servebench\",\"ph\":\"X\","
                   "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                   "\"args\":{\"op\":%u,\"hit\":%d}}",
                   first ? "" : ",\n", SpanNameString(s.name), tid,
                   micros(s.start),
                   std::chrono::duration<double, std::micro>(s.end - s.start)
                       .count(),
                   s.op,
                   s.hit ? 1 : 0);
      first = false;
    }
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace lbsq::servebench
