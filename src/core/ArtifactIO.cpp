//===- core/ArtifactIO.cpp - Persisting synthesized knowledge -------------===//

#include "core/ArtifactIO.h"

#include "expr/Parser.h"
#include "obs/Instrument.h"
#include "support/Checksum.h"
#include "support/FaultInjection.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <unistd.h>

using namespace anosy;

namespace {

/// Domain-shape adapters: a knowledge base stores include/exclude box
/// lists uniformly; the two domains project to/from that shape.
std::vector<Box> includesOf(const Box &B) {
  if (B.isEmpty())
    return {};
  return {B};
}
std::vector<Box> excludesOf(const Box &) { return {}; }
std::vector<Box> includesOf(const PowerBox &P) { return P.includes(); }
std::vector<Box> excludesOf(const PowerBox &P) { return P.excludes(); }

Result<Box> domainFromLists(std::vector<Box> Inc, std::vector<Box> Exc,
                            size_t Arity, const Box *) {
  if (!Exc.empty())
    return Error(ErrorCode::ParseError,
                 "interval knowledge bases cannot carry exclude boxes");
  if (Inc.size() > 1)
    return Error(ErrorCode::ParseError,
                 "interval knowledge bases carry at most one include box");
  if (Inc.empty())
    return Box::bottom(Arity);
  return Inc.front();
}

Result<PowerBox> domainFromLists(std::vector<Box> Inc, std::vector<Box> Exc,
                                 size_t Arity, const PowerBox *) {
  return PowerBox(Arity, std::move(Inc), std::move(Exc));
}

template <AbstractDomain D> const char *domainTag();
template <> [[maybe_unused]] const char *domainTag<Box>() {
  return "interval";
}
template <> [[maybe_unused]] const char *domainTag<PowerBox>() {
  return "powerset";
}

std::string renderBoxList(const std::vector<Box> &Boxes) {
  std::string Out;
  for (size_t I = 0, E = Boxes.size(); I != E; ++I) {
    if (I != 0)
      Out += " ;";
    for (size_t Dim = 0, N = Boxes[I].arity(); Dim != N; ++Dim) {
      const Interval &IV = Boxes[I].dim(Dim);
      Out += " [" + std::to_string(IV.Lo) + ", " + std::to_string(IV.Hi) +
             "]";
    }
  }
  return Out;
}

/// Parses "[lo, hi] [lo, hi] ; [lo, hi] ..." into boxes of \p Arity.
Result<std::vector<Box>> parseBoxList(const std::string &Text,
                                      size_t Arity) {
  std::vector<Box> Boxes;
  std::vector<Interval> Dims;
  size_t Pos = 0;
  auto SkipWs = [&]() {
    while (Pos < Text.size() &&
           std::isspace(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
  };
  // Manual accumulation with an explicit overflow check: std::stoll
  // throws on out-of-range digits, and knowledge bases are parsed from
  // untrusted files (this library builds without exception tolerance in
  // its error contract — hostile input must surface as an Error).
  auto ParseInt = [&]() -> Result<int64_t> {
    SkipWs();
    bool Negative = false;
    if (Pos < Text.size() && (Text[Pos] == '-' || Text[Pos] == '+')) {
      Negative = Text[Pos] == '-';
      ++Pos;
    }
    bool AnyDigit = false;
    // Accumulate negated (the larger half of the two's-complement range)
    // so INT64_MIN parses and INT64_MAX overflow is caught exactly.
    int64_t Value = 0;
    while (Pos < Text.size() &&
           std::isdigit(static_cast<unsigned char>(Text[Pos]))) {
      AnyDigit = true;
      int64_t Digit = Text[Pos] - '0';
      if (Value < (INT64_MIN + Digit) / 10)
        return Error(ErrorCode::ParseError,
                     "integer out of range in box list");
      Value = Value * 10 - Digit;
      ++Pos;
    }
    if (!AnyDigit)
      return Error(ErrorCode::ParseError,
                   "expected an integer in box list: " + Text);
    if (!Negative) {
      if (Value == INT64_MIN)
        return Error(ErrorCode::ParseError,
                     "integer out of range in box list");
      Value = -Value;
    }
    return Value;
  };

  while (true) {
    SkipWs();
    if (Pos >= Text.size())
      break;
    if (Text[Pos] == ';') {
      if (Dims.size() != Arity)
        return Error(ErrorCode::ParseError,
                     "box with wrong arity in knowledge base");
      Boxes.push_back(Box(Dims));
      Dims.clear();
      ++Pos;
      continue;
    }
    if (Text[Pos] != '[')
      return Error(ErrorCode::ParseError,
                   "expected '[' in box list: " + Text);
    ++Pos;
    auto Lo = ParseInt();
    if (!Lo)
      return Lo.error();
    SkipWs();
    if (Pos >= Text.size() || Text[Pos] != ',')
      return Error(ErrorCode::ParseError, "expected ',' in interval");
    ++Pos;
    auto Hi = ParseInt();
    if (!Hi)
      return Hi.error();
    SkipWs();
    if (Pos >= Text.size() || Text[Pos] != ']')
      return Error(ErrorCode::ParseError, "expected ']' in interval");
    ++Pos;
    Dims.push_back({Lo.value(), Hi.value()});
    if (Dims.size() > Arity)
      return Error(ErrorCode::ParseError,
                   "box with too many dimensions in knowledge base");
  }
  if (!Dims.empty()) {
    if (Dims.size() != Arity)
      return Error(ErrorCode::ParseError,
                   "box with wrong arity in knowledge base");
    Boxes.push_back(Box(Dims));
  }
  return Boxes;
}

/// Strips a fixed prefix; returns false when absent.
bool consumePrefix(std::string &Line, const std::string &Prefix) {
  if (Line.rfind(Prefix, 0) != 0)
    return false;
  Line = Line.substr(Prefix.size());
  return true;
}

constexpr const char *ListPrefixes[4] = {"true include", "true exclude",
                                         "false include", "false exclude"};
constexpr const char *RecordChecksumPrefix = "record-checksum fnv1a64:";
constexpr const char *TrailerPrefix = "trailer fnv1a64:";

/// The five content lines of one record (query + four box lists), exactly
/// as serialized — also the byte range the record checksum covers.
template <AbstractDomain D>
std::string renderRecordPayload(const Schema &S, const QueryInfo<D> &Info) {
  assert(Info.Kind == ApproxKind::Under &&
         "knowledge bases store the enforcement (under) artifacts");
  std::string Out = "query " + Info.Name + " = " + Info.QueryExpr->str(S) +
                    "\n";
  Out += "true include" + renderBoxList(includesOf(Info.Ind.TrueSet)) + "\n";
  Out += "true exclude" + renderBoxList(excludesOf(Info.Ind.TrueSet)) + "\n";
  Out +=
      "false include" + renderBoxList(includesOf(Info.Ind.FalseSet)) + "\n";
  Out +=
      "false exclude" + renderBoxList(excludesOf(Info.Ind.FalseSet)) + "\n";
  return Out;
}

/// The input split into lines, remembering each line's byte offset so
/// checksums run over the original bytes, not a normalized rendering.
struct LineIndex {
  std::vector<std::string> Lines;
  std::vector<size_t> Starts;
};

LineIndex splitLines(const std::string &Text) {
  LineIndex Idx;
  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t Nl = Text.find('\n', Pos);
    size_t End = Nl == std::string::npos ? Text.size() : Nl;
    Idx.Starts.push_back(Pos);
    Idx.Lines.push_back(Text.substr(Pos, End - Pos));
    Pos = Nl == std::string::npos ? Text.size() : Nl + 1;
  }
  return Idx;
}

struct Header {
  int Version = 0;
  std::string Domain;
};

Result<Header> parseHeader(const std::string &Line) {
  Header H;
  std::string Rest = Line;
  if (consumePrefix(Rest, "anosy-knowledge-base v1 domain "))
    H.Version = 1;
  else if (consumePrefix(Rest, "anosy-knowledge-base v2 domain "))
    H.Version = 2;
  else
    return Error(ErrorCode::ParseError,
                 "missing knowledge-base header: " + Line);
  H.Domain = Rest;
  return H;
}

/// Parses the query line "query <name> = <body>" against \p S.
template <AbstractDomain D>
Result<QueryInfo<D>> parseQueryLine(const Schema &S, std::string Line) {
  if (!consumePrefix(Line, "query "))
    return Error(ErrorCode::ParseError,
                 "expected a 'query' record, found: " + Line);
  size_t EqPos = Line.find(" = ");
  if (EqPos == std::string::npos)
    return Error(ErrorCode::ParseError, "malformed query record: " + Line);
  QueryInfo<D> Info;
  Info.Name = Line.substr(0, EqPos);
  auto Body = parseQueryExpr(S, Line.substr(EqPos + 3));
  if (!Body)
    return Body.error();
  Info.QueryExpr = Body.takeValue();
  Info.Kind = ApproxKind::Under;
  return Info;
}

/// Parses the four box-list lines into \p Info's ind. sets.
template <AbstractDomain D>
Result<void> parseArtifactLines(const std::string *ListLines, size_t Arity,
                                QueryInfo<D> &Info) {
  std::vector<Box> Lists[4];
  for (int I = 0; I != 4; ++I) {
    std::string Line = ListLines[I];
    if (!consumePrefix(Line, ListPrefixes[I]))
      return Error(ErrorCode::ParseError,
                   std::string("expected '") + ListPrefixes[I] +
                       "' line, found: " + ListLines[I]);
    auto Boxes = parseBoxList(Line, Arity);
    if (!Boxes)
      return Boxes.error();
    Lists[I] = Boxes.takeValue();
  }
  auto TrueSet = domainFromLists(std::move(Lists[0]), std::move(Lists[1]),
                                 Arity, static_cast<const D *>(nullptr));
  if (!TrueSet)
    return TrueSet.error();
  auto FalseSet = domainFromLists(std::move(Lists[2]), std::move(Lists[3]),
                                  Arity, static_cast<const D *>(nullptr));
  if (!FalseSet)
    return FalseSet.error();
  Info.Ind.TrueSet = TrueSet.takeValue();
  Info.Ind.FalseSet = FalseSet.takeValue();
  return {};
}

/// Verifies a "<prefix><16 hex>" integrity line against \p Expected.
bool checksumLineMatches(std::string Line, const char *Prefix,
                         uint64_t Expected) {
  if (!consumePrefix(Line, Prefix))
    return false;
  uint64_t Stored = 0;
  if (!parseChecksumHex(Line, Stored))
    return false;
  return Stored == Expected;
}

/// Best-effort query name for a Lost record's report entry.
std::string lostRecordName(const std::string &QueryLine, size_t Ordinal) {
  std::string Line = QueryLine;
  if (consumePrefix(Line, "query ")) {
    size_t EqPos = Line.find(" = ");
    std::string Name =
        EqPos == std::string::npos ? std::string() : Line.substr(0, EqPos);
    if (!Name.empty() && Name.find(' ') == std::string::npos)
      return Name;
  }
  return "<record " + std::to_string(Ordinal) + ">";
}

} // namespace

template <AbstractDomain D>
std::string
anosy::serializeKnowledgeBaseV2(const Schema &S,
                                const std::vector<QueryInfo<D>> &Infos) {
  ANOSY_OBS_SPAN(Span, "anosy.kb.serialize");
  ANOSY_OBS_SPAN_ARG(Span, "records", Infos.size());
  std::string Out = std::string("anosy-knowledge-base v2 domain ") +
                    domainTag<D>() + "\n";
  Out += "secret " + S.str() + "\n";
  for (const QueryInfo<D> &Info : Infos) {
    std::string Payload = renderRecordPayload(S, Info);
    uint64_t Sum = fnv1a64(Payload);
    Out += Payload;
    Out += std::string(RecordChecksumPrefix) + checksumHex(Sum) + "\n";
    Out += "end\n";
  }
  Out += std::string(TrailerPrefix) + checksumHex(fnv1a64(Out)) + "\n";
  return Out;
}

/// The one reader behind both entry points: fails only when the header
/// or schema is unreadable, classifies every record, counts stray lines,
/// and keeps the first defect in file order for the strict read.
template <AbstractDomain D>
static Result<RecoveredKnowledgeBase<D>>
salvageKnowledgeBase(const std::string &Text) {
  LineIndex Idx = splitLines(Text);
  const std::vector<std::string> &L = Idx.Lines;
  size_t N = L.size();

  if (N == 0)
    return Error(ErrorCode::ParseError, "empty knowledge base");
  auto H = parseHeader(L[0]);
  if (!H)
    return H.error();
  if (H->Domain != domainTag<D>())
    return Error(ErrorCode::ParseError,
                 "knowledge base is for domain '" + H->Domain +
                     "', expected '" + domainTag<D>() + "'");
  if (N < 2)
    return Error(ErrorCode::ParseError, "missing schema line");
  auto SchemaR = parseSchema(L[1]);
  if (!SchemaR)
    return SchemaR.error();

  RecoveredKnowledgeBase<D> Rec;
  Rec.S = SchemaR.takeValue();
  Rec.Version = H->Version;
  size_t Arity = Rec.S.arity();
  auto Defect = [&Rec](Error E) {
    if (!Rec.FirstDefect)
      Rec.FirstDefect = std::move(E);
  };

  // Trailer: the last non-empty line of a healthy v2 file.
  size_t TrailerIdx = N;
  if (H->Version == 2) {
    Rec.TrailerValid = false;
    for (size_t I = N; I-- > 2;) {
      if (L[I].empty())
        continue;
      if (L[I].rfind(TrailerPrefix, 0) == 0)
        TrailerIdx = I;
      Rec.TrailerValid = checksumLineMatches(
          L[I], TrailerPrefix,
          fnv1a64(std::string_view(Text).substr(0, Idx.Starts[I])));
      break;
    }
  }

  // Scan for "query " anchors and classify each record independently; a
  // damaged record never poisons its neighbors.
  size_t Ordinal = 0;
  for (size_t I = 2; I < N;) {
    if (L[I].rfind("query ", 0) != 0) {
      // Blank lines may separate records; any other line outside a
      // record, bar the v2 trailer, is stray.
      if (!L[I].empty() && I != TrailerIdx) {
        ++Rec.Stray;
        Defect(Error(ErrorCode::ParseError,
                     "expected a 'query' record, found: " + L[I]));
      }
      ++I;
      continue;
    }
    ++Ordinal;
    size_t QueryIdx = I;

    // Find this record's extent: up to (and including) the next "end",
    // stopping early at the next "query " anchor (a lost "end").
    size_t EndIdx = std::string::npos;
    size_t Next = N;
    for (size_t J = I + 1; J < N; ++J) {
      if (L[J] == "end") {
        EndIdx = J;
        Next = J + 1;
        break;
      }
      if (L[J].rfind("query ", 0) == 0) {
        Next = J;
        break;
      }
      if (L[J].rfind(TrailerPrefix, 0) == 0) {
        Next = J;
        break;
      }
    }
    I = Next;

    auto Info = parseQueryLine<D>(Rec.S, L[QueryIdx]);
    if (!Info) {
      Rec.Lost.push_back(lostRecordName(L[QueryIdx], Ordinal));
      Defect(Info.error());
      continue;
    }
    auto Damage = [&](Error Why) {
      Rec.Damaged.push_back({Info->Name, Info->QueryExpr});
      Defect(std::move(Why));
    };

    // Structural completeness: 4 list lines (+ checksum line for v2)
    // between the query line and the end marker.
    size_t Expected = H->Version == 2 ? 6u : 5u;
    if (EndIdx == std::string::npos) {
      Damage(Error(ErrorCode::ParseError,
                   (Next == N ? "truncated record for query "
                              : "missing 'end' for query ") +
                       Info->Name));
      continue;
    }
    if (EndIdx - QueryIdx != Expected) {
      Damage(Error(ErrorCode::ParseError,
                   "record for query " + Info->Name + " has " +
                       std::to_string(EndIdx - QueryIdx - 1) +
                       " lines before 'end', expected " +
                       std::to_string(Expected - 1)));
      continue;
    }
    if (H->Version == 2) {
      size_t SumIdx = QueryIdx + 5;
      if (!checksumLineMatches(
              L[SumIdx], RecordChecksumPrefix,
              fnv1a64(std::string_view(Text).substr(
                  Idx.Starts[QueryIdx],
                  Idx.Starts[SumIdx] - Idx.Starts[QueryIdx])))) {
        Damage(Error(ErrorCode::ParseError,
                     "record checksum mismatch for query " + Info->Name));
        continue;
      }
    }
    if (auto R = parseArtifactLines(&L[QueryIdx + 1], Arity, *Info); !R) {
      Damage(R.error());
      continue;
    }
    Rec.Intact.push_back(Info.takeValue());
  }
  if (!Rec.TrailerValid)
    Defect(Error(ErrorCode::ParseError,
                 TrailerIdx == N
                     ? "missing knowledge-base trailer (file truncated)"
                     : "knowledge-base trailer checksum mismatch (file "
                       "truncated or corrupted)"));
  return Rec;
}

template <AbstractDomain D>
Result<KnowledgeBase<D>> anosy::parseKnowledgeBase(const std::string &Text) {
  auto Rec = salvageKnowledgeBase<D>(Text);
  if (!Rec)
    return Rec.error();
  // A strict read is a salvage read with nothing to salvage.
  if (!Rec->Damaged.empty() || !Rec->Lost.empty() || Rec->Stray != 0 ||
      !Rec->TrailerValid)
    return *Rec->FirstDefect;
  return KnowledgeBase<D>{std::move(Rec->S), std::move(Rec->Intact)};
}

template <AbstractDomain D>
Result<RecoveredKnowledgeBase<D>>
anosy::recoverKnowledgeBase(const std::string &Text) {
  ANOSY_OBS_SPAN(Span, "anosy.kb.recover");
  auto Rec = salvageKnowledgeBase<D>(Text);
  if (!Rec)
    return Rec.error();
  ANOSY_OBS_SPAN_ARG(Span, "intact", Rec->Intact.size());
  ANOSY_OBS_SPAN_ARG(Span, "damaged", Rec->Damaged.size());
  ANOSY_OBS_SPAN_ARG(Span, "lost", Rec->Lost.size());
  ANOSY_OBS_COUNT("anosy_kb_records_intact_total",
                  "Knowledge-base records recovered intact",
                  Rec->Intact.size());
  ANOSY_OBS_COUNT("anosy_kb_records_damaged_total",
                  "Knowledge-base records salvaged for resynthesis",
                  Rec->Damaged.size());
  ANOSY_OBS_COUNT("anosy_kb_records_lost_total",
                  "Knowledge-base records dropped as unrecoverable",
                  Rec->Lost.size());
  return Rec;
}

Result<std::string> anosy::readKnowledgeBaseFile(const std::string &Path) {
  ANOSY_OBS_SPAN(Span, "anosy.kb.read");
  ANOSY_OBS_SPAN_ARG(Span, "path", Path);
  int Fd = ::open(Path.c_str(), O_RDONLY);
  if (Fd < 0)
    return Error(ErrorCode::Other, "cannot open knowledge base '" + Path +
                                       "': " + std::strerror(errno));
  std::string Out;
  char Buf[1 << 16];
  ssize_t Got;
  while ((Got = ::read(Fd, Buf, sizeof(Buf))) > 0)
    Out.append(Buf, static_cast<size_t>(Got));
  int ReadErrno = errno;
  ::close(Fd);
  if (Got < 0)
    return Error(ErrorCode::Other, "error reading knowledge base '" + Path +
                                       "': " + std::strerror(ReadErrno));
  // Fault-injection site: simulate media corruption with one
  // deterministic bit flip. The v2 checksums exist to catch exactly this.
  if (faults::armed() && faults::shouldFail(FaultSite::KbRead) &&
      !Out.empty()) {
    uint64_t R = faults::mix(Out.size());
    size_t Byte = static_cast<size_t>(R % Out.size());
    Out[Byte] = static_cast<char>(Out[Byte] ^ (1u << ((R >> 32) % 8)));
  }
  return Out;
}

Result<void> anosy::writeKnowledgeBaseFileAtomic(const std::string &Path,
                                                 const std::string &Text,
                                                 const std::string &TmpSuffix) {
  ANOSY_OBS_SPAN(Span, "anosy.kb.write");
  ANOSY_OBS_SPAN_ARG(Span, "path", Path);
  ANOSY_OBS_SPAN_ARG(Span, "bytes", Text.size());
  ANOSY_OBS_COUNT("anosy_kb_writes_total",
                  "Atomic knowledge-base writes attempted", 1);
  std::string Tmp = Path + TmpSuffix;
  int Fd = ::open(Tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (Fd < 0)
    return Error(ErrorCode::Other, "cannot create '" + Tmp +
                                       "': " + std::strerror(errno));

  // Fault-injection site: a "crash" mid-write — some bytes land in the
  // temp file, which is then abandoned without the rename. The
  // destination file (previous version, if any) must stay untouched.
  size_t WriteLen = Text.size();
  bool Injected = faults::armed() && faults::shouldFail(FaultSite::KbWrite);
  if (Injected)
    WriteLen /= 2;

  size_t Off = 0;
  while (Off < WriteLen) {
    ssize_t Put = ::write(Fd, Text.data() + Off, WriteLen - Off);
    if (Put < 0) {
      int E = errno;
      ::close(Fd);
      ::unlink(Tmp.c_str());
      return Error(ErrorCode::Other,
                   "error writing '" + Tmp + "': " + std::strerror(E));
    }
    Off += static_cast<size_t>(Put);
  }
  if (Injected) {
    ::close(Fd);
    return Error(ErrorCode::Other,
                 "injected kb-write fault: write torn before rename ('" +
                     Tmp + "' abandoned)");
  }
  if (::fsync(Fd) != 0) {
    int E = errno;
    ::close(Fd);
    ::unlink(Tmp.c_str());
    return Error(ErrorCode::Other,
                 "fsync failed for '" + Tmp + "': " + std::strerror(E));
  }
  ::close(Fd);
  if (::rename(Tmp.c_str(), Path.c_str()) != 0) {
    int E = errno;
    ::unlink(Tmp.c_str());
    return Error(ErrorCode::Other, "cannot rename '" + Tmp + "' to '" +
                                       Path + "': " + std::strerror(E));
  }
  // The rename only lives in the page cache until the *directory* is
  // fsynced; a crash before that can lose the new directory entry and
  // silently resurface the previous file. Failing here is reported after
  // the rename: the destination already holds the complete new content
  // (never torn), so callers retry the write idempotently.
  std::string Dir;
  size_t Slash = Path.rfind('/');
  if (Slash == std::string::npos)
    Dir = ".";
  else if (Slash == 0)
    Dir = "/";
  else
    Dir = Path.substr(0, Slash);
  bool DirInjected =
      faults::armed() && faults::shouldFail(FaultSite::KbDirFsync);
  int DirFd = DirInjected ? -1 : ::open(Dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (DirFd < 0 || ::fsync(DirFd) != 0) {
    int E = DirInjected ? EIO : errno;
    if (DirFd >= 0)
      ::close(DirFd);
    return Error(ErrorCode::Other,
                 DirInjected
                     ? "injected kb-dir-fsync fault: rename durable only "
                       "after directory fsync ('" +
                           Dir + "')"
                     : "cannot fsync directory '" + Dir +
                           "' after rename: " + std::strerror(E));
  }
  ::close(DirFd);
  return {};
}

// Explicit instantiations for the two shipped domains.
template std::string anosy::serializeKnowledgeBaseV2<Box>(
    const Schema &, const std::vector<QueryInfo<Box>> &);
template std::string anosy::serializeKnowledgeBaseV2<PowerBox>(
    const Schema &, const std::vector<QueryInfo<PowerBox>> &);
template Result<KnowledgeBase<Box>>
anosy::parseKnowledgeBase<Box>(const std::string &);
template Result<KnowledgeBase<PowerBox>>
anosy::parseKnowledgeBase<PowerBox>(const std::string &);
template Result<RecoveredKnowledgeBase<Box>>
anosy::recoverKnowledgeBase<Box>(const std::string &);
template Result<RecoveredKnowledgeBase<PowerBox>>
anosy::recoverKnowledgeBase<PowerBox>(const std::string &);
