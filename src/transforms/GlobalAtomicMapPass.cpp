//===- GlobalAtomicMapPass.cpp - Section III-A AST pass --------------------===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//

#include "transforms/GlobalAtomicMapPass.h"

#include "lang/ASTVisitor.h"
#include "reduce/OpDef.h"

using namespace tangram;
using namespace tangram::lang;
using namespace tangram::transforms;

namespace {

/// Finds the Map atomic API call and any spectrum call consuming a Map.
class Finder : public ASTVisitor<Finder> {
public:
  explicit Finder(const std::string &SpectrumName)
      : SpectrumName(SpectrumName) {}

  bool visitMemberCallExpr(MemberCallExpr *M) {
    if (M->getMemberKind() != MemberKind::MapAtomic)
      return true;
    AtomicAPI = M;
    AtomicOp = M->getAtomicOp();
    if (const auto *Ref =
            dyn_cast<DeclRefExpr>(M->getBase()->ignoreParens()))
      MapVar = dyn_cast_if_present<VarDecl>(Ref->getDecl());
    return true;
  }

  bool visitCallExpr(CallExpr *C) {
    if (C->getCalleeKind() != CalleeKind::Spectrum)
      return true;
    // Is the Map (or any Map) the input of this spectrum call?
    for (Expr *Arg : C->getArgs()) {
      const auto *Ref = dyn_cast<DeclRefExpr>(Arg->ignoreParens());
      if (!Ref)
        continue;
      const auto *Var = dyn_cast_if_present<VarDecl>(Ref->getDecl());
      if (Var && Var->getType()->isMap()) {
        SpectrumCall = C;
        SpectrumConsumesMap = Var;
        // "Same computation" (Section III-A): the spectrum call re-applies
        // the codelet's own spectrum to the partial results.
        SameComputation = C->getCallee() == SpectrumName;
      }
    }
    return true;
  }

  const std::string &SpectrumName;
  MemberCallExpr *AtomicAPI = nullptr;
  const VarDecl *MapVar = nullptr;
  ReduceOp AtomicOp = ReduceOp::Add;
  CallExpr *SpectrumCall = nullptr;
  const VarDecl *SpectrumConsumesMap = nullptr;
  bool SameComputation = false;
};

} // namespace

std::optional<GlobalAtomicInfo>
tangram::transforms::analyzeGlobalAtomicMap(CodeletDecl *C) {
  Finder F(C->getName());
  F.traverseCodelet(C);
  if (!F.AtomicAPI)
    return std::nullopt;

  GlobalAtomicInfo Info;
  Info.MapVar = F.MapVar;
  Info.Op = F.AtomicOp;
  const reduce::OpDef &D = reduce::getOpDef(Info.Op);
  Info.ReorderSafe = D.Commutative && D.Associative;
  // The spectrum call is only relevant when it consumes the same Map the
  // atomic API was invoked on.
  if (F.SpectrumCall && F.SpectrumConsumesMap == F.MapVar) {
    Info.SpectrumCall = F.SpectrumCall;
    Info.SameComputation = F.SameComputation;
  }
  return Info;
}
