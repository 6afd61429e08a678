//===- ASTContext.h - AST allocation and type uniquing ---------*- C++ -*-===//
//
// Part of the tangram-reduction project. See README.md for license details.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Owns every AST node and language type for one compilation. Nodes are
/// created through the `create<NodeT>(...)` factory and live as long as the
/// context; the tree itself stores raw pointers. Scalar types are singletons
/// and array types are uniqued, so type equality is pointer identity.
///
//===----------------------------------------------------------------------===//

#ifndef TANGRAM_LANG_ASTCONTEXT_H
#define TANGRAM_LANG_ASTCONTEXT_H

#include "lang/AST.h"

#include <memory>
#include <vector>

namespace tangram::lang {

class ASTContext {
public:
  ASTContext();
  ASTContext(const ASTContext &) = delete;
  ASTContext &operator=(const ASTContext &) = delete;

  /// Allocates an AST node owned by this context.
  template <typename NodeT, typename... ArgTs>
  NodeT *create(ArgTs &&...Args) {
    auto Owned = std::make_unique<NodeT>(std::forward<ArgTs>(Args)...);
    NodeT *Raw = Owned.get();
    Allocations.push_back(
        std::unique_ptr<void, void (*)(void *)>(Owned.release(), [](void *P) {
          delete static_cast<NodeT *>(P);
        }));
    return Raw;
  }

  // Singleton scalar / primitive types.
  const Type *getVoidType() const { return VoidTy.get(); }
  const Type *getIntType() const { return IntTy.get(); }
  const Type *getUnsignedType() const { return UnsignedTy.get(); }
  const Type *getFloatType() const { return FloatTy.get(); }
  const Type *getLongType() const { return LongTy.get(); }
  const Type *getDoubleType() const { return DoubleTy.get(); }
  const Type *getVectorType() const { return VectorTy.get(); }
  const Type *getSequenceType() const { return SequenceTy.get(); }
  const Type *getMapType() const { return MapTy.get(); }

  /// Returns the uniqued `Array<1, Element>` type (const-qualified or not).
  const Type *getArrayType(const Type *Element, bool Const);

private:
  std::vector<std::unique_ptr<void, void (*)(void *)>> Allocations;

  std::unique_ptr<Type> VoidTy, IntTy, UnsignedTy, FloatTy, LongTy, DoubleTy,
      VectorTy, SequenceTy, MapTy;
  std::vector<std::unique_ptr<Type>> ArrayTypes;
};

} // namespace tangram::lang

#endif // TANGRAM_LANG_ASTCONTEXT_H
